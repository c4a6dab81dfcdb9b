(** CNF formulas.

    A formula is an immutable pair of a variable count and a clause
    array.  Variables are numbered [1 .. num_vars]; a formula may
    mention fewer variables than [num_vars] (e.g. after a variable is
    added as an engineering change, or eliminated).  All mutation-style
    operations return fresh formulas, so the EC flow can keep the
    original and modified instances side by side. *)

type t

val create : num_vars:int -> Clause.t list -> t
(** @raise Invalid_argument if a clause mentions a variable above
    [num_vars] or if [num_vars < 0]. *)

val of_lists : num_vars:int -> Lit.t list list -> t
(** Convenience wrapper: build clauses with {!Clause.make}.
    Tautological input clauses are dropped (they constrain nothing). *)

val num_vars : t -> int

val num_clauses : t -> int

val clause : t -> int -> Clause.t
(** Clause by index.
    @raise Invalid_argument out of bounds. *)

val clauses : t -> Clause.t array
(** All clauses; callers must not mutate the result. *)

val iteri : (int -> Clause.t -> unit) -> t -> unit

val fold : ('acc -> Clause.t -> 'acc) -> 'acc -> t -> 'acc

val has_empty_clause : t -> bool
(** An empty clause makes the formula trivially unsatisfiable. *)

val occurrences : t -> Lit.t -> int list
(** Indices of the clauses containing the literal (exact phase),
    ascending; [[]] for a literal of no variable in range.

    The occurrence index is a CSR table (compressed sparse rows): an
    offsets array with one slot per literal — [2 (v - 1)] for [v],
    [2 (v - 1) + 1] for [-v] — into one array of clause indices
    grouped by literal, ascending.  It is built once, on the first
    query, in two counting passes over the literals, and published
    atomically, so domains that force it concurrently all read the
    same table.  After that a query costs O(result).

    A formula produced by {!edit} from a parent whose own table is
    already built, by a script without [Remove_clause], inherits that
    table instead of building one: its clause positions are the
    parent's followed by the appended ones, so it answers from the
    parent's table (minus the eliminated variables) plus a sorted
    index over the appended clauses, built with the child in
    O(a log a) for [a] appended literals.  The child keeps the
    parent's table alive, never the parent formula, and a child's
    child builds its own table: only a formula that owns a table
    passes one on. *)

val var_occurrences : t -> int -> int list
(** Indices of clauses containing either phase of the variable,
    ascending and duplicate-free; same cost as {!occurrences}. *)

(** {2 Editing}

    The engineering changes of {!Change}, applied by {!edit}. *)

type edit =
  | Add_clause of Clause.t
      (** append; variables above [num_vars] grow the variable count *)
  | Remove_clause of int  (** index into the formula at application time *)
  | Add_var
  | Eliminate_var of int
      (** delete every occurrence of the variable; the variable count
          is unchanged *)

val edit : t -> edit list -> t
(** Left-to-right application; each edit sees the formula produced by
    the previous ones.  One pass over the script collects its net
    effect, then the child's clause array is built once: the parent's
    clauses (minus removed ones), with eliminated variables stripped
    only from the clauses the parent's index lists for them (or, when
    the parent has not built its index, in one scan of its clauses),
    followed by the added clauses.  The empty script returns the
    formula itself.
    @raise Invalid_argument on an out-of-range clause index or
    variable, as the single-edit functions below. *)

val add_clause : t -> Clause.t -> t
(** Append one clause (engineering change: new constraint).
    Variables above [num_vars] are accommodated by growing the
    variable count. *)

val add_clauses : t -> Clause.t list -> t

val remove_clause : t -> int -> t
(** Drop the clause at an index (engineering change: constraint
    deleted).  Later clauses shift down by one.
    @raise Invalid_argument out of bounds. *)

val add_var : t -> t
(** Grow the variable count by one; the new variable is unconstrained
    (a don't-care for any existing solution). *)

val eliminate_var : t -> int -> t
(** The paper's "variable elimination" change: every occurrence of the
    variable is deleted from every clause; the variable count is
    unchanged (the variable becomes unconstrained).  Clauses may become
    empty, making the instance unsatisfiable — callers decide how to
    react.
    @raise Invalid_argument if the variable is out of range. *)

val vars_used : t -> int list
(** Sorted list of variables with at least one occurrence. *)

val equal : t -> t -> bool
(** Structural equality of variable counts and clause sequences. *)

val to_string : t -> string
(** Paper notation: concatenated clause strings. *)
