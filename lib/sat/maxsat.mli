(** Core-guided MaxSAT (unweighted, OLL-style) on one incremental
    session.

    The preserving-EC objective — keep as many old signal values as
    possible — is a MaxSAT instance: the phase CNF is hard, one "keep"
    literal per signal is soft.  The historical path re-encoded a
    cardinality bound and re-solved from scratch for every probe of the
    objective; this engine instead runs a {e single}
    {!Cdcl.Session} end to end.  Soft literals are
    assumptions; each UNSAT answer yields a core (final-conflict
    analysis) that raises the proved lower bound by one and is relaxed
    through a {!Totalizer.incremental} whose bound is strengthened {e in
    place} — only delta clauses are ever posted, so learnt clauses and
    activities survive every bound iteration (Fu–Malik 2006; the OLL
    rule of Morgado–Dodaro–Marques-Silva 2014; incremental totalizers
    per Martins et al. 2014).

    Verdicts are this module's own type, never {!Outcome}: a decisive
    answer must pass {!Ec_core.Certify} before anyone may act on it,
    and the FP001 lint holds this module to that protocol. *)

type options = {
  cdcl : Cdcl.options;        (** options for the one CDCL session *)
  budget : Ec_util.Budget.t;  (** allowance for the whole optimization *)
}

val default_options : options

val config : options Ec_util.Config.spec
(** Tunable surface: the underlying CDCL session's [var_decay],
    [restart_base] and [seed], flattened so [maxsat:var_decay=0.9]
    reads naturally.  Budgets stay outside the spec. *)

(** Deterministic work counters, the bench currency. *)
type stats = {
  sat_calls : int;        (** incremental solver queries issued *)
  cores : int;            (** unsat cores extracted (= final lower bound) *)
  core_lits : int;        (** total literals across all cores *)
  bound_increases : int;  (** totalizer strengthenings posted *)
  clauses_encoded : int;  (** hard + every clause posted to the session *)
}

type best = { model : Ec_cnf.Assignment.t; cost : int }
(** A model of the hard formula violating [cost] soft literals.  The
    assignment ranges over the hard formula's variables only. *)

type verdict =
  | Optimum of best  (** [cost] soft violations is provably minimal *)
  | Hard_unsat       (** the hard clauses alone are unsatisfiable *)
  | Stopped of { reason : Ec_util.Budget.reason; incumbent : best option }
      (** budget ran out; [incumbent] is the best model found so far
          (its cost is an upper bound, {!result.lower_bound} the proved
          lower bound) *)

type result = {
  verdict : verdict;
  lower_bound : int;  (** soft violations proved necessary (#cores) *)
  cores : Ec_cnf.Lit.t list list;
      (** every extracted core, oldest first: literals are the
          assumptions that failed — original soft literals or negated
          totalizer outputs from earlier relaxations *)
  soft : Ec_cnf.Lit.t list;  (** the (deduplicated, sorted) soft set *)
  aux_lo : int;
  aux_hi : int;
      (** relaxation variables occupy [aux_lo, aux_hi): a core literal
          over a variable outside the hard formula must fall in this
          range and be a negated output — what {!Ec_core.Certify}
          checks *)
  stats : stats;
  counters : Ec_util.Budget.counters;  (** total solver spend *)
}

exception Corrupt_core of Ec_cnf.Lit.t
(** A reported core contained a literal that was not among the active
    assumptions — impossible for sound final-conflict analysis, so the
    core was corrupted in flight (the ["maxsat.core"] failpoint
    simulates this).  Callers contain it as an engine failure. *)

val cost_of : Ec_cnf.Lit.t list -> Ec_cnf.Assignment.t -> int
(** Number of the soft literals the assignment does not satisfy (a DC
    value does not satisfy either polarity). *)

val solve : ?options:options -> soft:Ec_cnf.Lit.t list -> Ec_cnf.Formula.t -> result
(** Minimize the number of violated [soft] literals subject to the hard
    formula.  Runs until optimality or budget exhaustion; an
    assumption-free incumbent probe first, so even a truncated run
    usually carries a feasible model.
    @raise Invalid_argument if a soft literal's variable is outside the
    hard formula.
    @raise Corrupt_core as documented above. *)
