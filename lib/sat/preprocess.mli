(** CNF preprocessing with model reconstruction.

    Classic simplifications applied to fixpoint before search:

    - unit propagation,
    - pure-literal fixing,
    - clause subsumption,
    - self-subsuming resolution (clause strengthening),
    - bounded variable elimination (resolve a variable away when the
      resolvent set is no larger than the clauses it replaces).

    Every simplification is recorded so a model of the simplified
    formula lifts back to a model of the original ({!reconstruct});
    eliminated and fixed variables disappear from the simplified
    formula but reappear with correct values after reconstruction. *)

type step = private
  | Fixed of int * bool  (** variable fixed by a unit or pure literal *)
  | Eliminated of int * Ec_cnf.Lit.t list list
      (** variable resolved away, with the clauses it occurred in *)
(** One recorded simplification, consumed by {!reconstruct}; readable
    but not constructible outside this module. *)

type result = {
  formula : Ec_cnf.Formula.t;  (** same variable numbering, fewer
                                   clauses/occurrences *)
  fixed : (int * bool) list;   (** variables fixed by units/pure literals *)
  eliminated : int list;       (** variables resolved away *)
  clauses_removed : int;
  literals_removed : int;
  steps : step list;           (** reconstruction script *)
}

val simplify :
  ?max_occurrences:int -> Ec_cnf.Formula.t -> [ `Simplified of result | `Unsat ]
(** Run all simplifications to fixpoint.  Variable elimination only
    considers variables with at most [max_occurrences] occurrences per
    phase (default 10) — the standard cutoff keeping the resolvent
    blow-up bounded. *)

val reconstruct : result -> Ec_cnf.Assignment.t -> Ec_cnf.Assignment.t
(** Lift a satisfying assignment of [result.formula] to one of the
    original formula (asserted in tests: the lifted assignment
    satisfies the original whenever the input satisfies the
    simplified). *)

val solve_with_preprocessing :
  ?options:Cdcl.options -> Ec_cnf.Formula.t -> Outcome.t
(** [simplify] then CDCL then [reconstruct] — the pipeline the bench
    harness ablates against plain CDCL. *)
