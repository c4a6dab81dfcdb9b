(** One resident EC session of the serve daemon.

    A session is the server-side unit of engineering change: the
    current formula, the pinned literals (assumptions applied to every
    solve), the last certified model, and a warm
    {!Ec_sat.Cdcl.Session} engine that carries learnt clauses across
    clause additions.  Clause {e addition} strengthens the formula, so
    the engine is kept; variable {e removal} weakens it and
    invalidates retained learnt clauses, so the engine is rebuilt from
    the updated formula — the two complementary mechanisms the paper's
    §6 is about, applied at the service layer.

    Fault containment is per-session by construction: {!solve} runs
    the engine under the caller's budget, passes the answer through
    independent certification ({!Ec_core.Certify}), and contains any
    exception or certification failure by rebuilding the engine with a
    fresh seed and retrying once; a second failure degrades {e this
    request} to [Unknown (Engine_failure _)] — the session stays
    usable and no other session is affected.  The
    ["serve.session"] / ["serve.session:<name>"] failpoints
    ({!Ec_util.Fault}) fire inside {!solve}, which is what the chaos
    suite arms. *)

type t

val create : name:string -> Ec_cnf.Formula.t -> t
(** A fresh session holding the formula, with no pins, no model and a
    cold engine. *)

val name : t -> string
(** The client-chosen session name (the routing key of the wire
    protocol). *)

val formula : t -> Ec_cnf.Formula.t
(** The current formula, all deltas applied. *)

val num_vars : t -> int
(** Variable count of {!formula} (the range pins are checked
    against). *)

val num_clauses : t -> int
(** Clause count of {!formula}. *)

val add_clauses : t -> Ec_cnf.Clause.t list -> unit
(** Apply add-clause deltas to the formula and the warm engine (learnt
    clauses are retained — addition only strengthens). *)

val remove_vars : t -> int list -> (unit, string) result
(** Eliminate each variable (every occurrence deleted, the paper's
    §4 change); the warm engine is rebuilt because retained learnt
    clauses are no longer implied.  [Error] on out-of-range variables
    (the session is untouched). *)

val pin : t -> Ec_cnf.Lit.t list -> (unit, string) result
(** Replace the pinned literals.  [Error] if a pin references a
    variable above the session's range. *)

val pins : t -> Ec_cnf.Lit.t list
(** The literals currently assumed by every solve (empty when
    unpinned). *)

val last_model : t -> Ec_cnf.Assignment.t option
(** The most recent certified model, if any solve produced one. *)

val revision : t -> int
(** Bumped by every mutating operation (deltas and pins). *)

val solves : t -> int
(** How many solve requests this session has answered. *)

val is_degraded : t -> bool
(** Did the most recent solve degrade (containment path)? *)

(** What one request's solve produced.  [certified] is [true] only for
    a [Sat] outcome that passed the independent model re-check and
    satisfies every pin.  [degraded] marks the containment path
    (engine failed twice); [retried] marks a successful answer that
    needed the one engine rebuild. *)
type solve_result = {
  outcome : Ec_sat.Outcome.t;
  certified : bool;
  degraded : bool;
  retried : bool;
}

val solve : budget:Ec_util.Budget.t -> t -> solve_result
(** Solve the session's formula under its pins and the given
    per-request budget.  Never raises: exceptions (including injected
    faults) are contained as described above. *)
