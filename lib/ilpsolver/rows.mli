(** Normalized constraint system for the 0-1 solvers.

    Both the branch-and-bound and the heuristic solver want the same
    view of a model: every constraint as [Σ ci·xi <= ub] over binary
    variables only, with per-variable occurrence lists and a minimize
    objective.  [Ge] rows are negated, [Eq] rows split in two,
    [Maximize] objectives negated; constant parts are folded into the
    right-hand sides. *)

type row = {
  coeffs : float array;
  vars : int array;     (** same length as [coeffs] *)
  ub : float;
  origin : string;      (** name of the model constraint it came from *)
}

type t = {
  nvars : int;
  rows : row array;
  occ : (int * float) list array;
      (** per variable: (row index, coefficient) pairs *)
  obj : float array;    (** minimize Σ obj.(i)·xi + obj_const *)
  obj_const : float;
  flip_objective : bool;
      (** true when the model maximized: flip sign when reporting *)
}

val of_model : Ec_ilp.Model.t -> t
(** @raise Invalid_argument if the model has non-binary variables. *)

val rows_of_model : Ec_ilp.Model.t -> row array
(** The [rows] of {!of_model} alone, without the occurrence lists and
    the objective: for consumers that only translate the constraints.
    @raise Invalid_argument if the model has non-binary variables. *)

val min_activity : row -> float
(** Activity lower bound with every variable free. *)

val report_objective : t -> float -> float
(** Map an internal (minimize) objective value back to the model's
    sense, re-adding the constant part. *)

val point_feasible : ?eps:float -> t -> int array -> bool
(** Is a full 0/1 point (values 0 or 1 per variable) feasible? *)

val violated_rows : ?eps:float -> t -> int array -> int list
(** Indices of rows violated by a full 0/1 point. *)

val internal_objective : t -> int array -> float
(** Minimize-sense objective of a 0/1 point (without constant). *)
