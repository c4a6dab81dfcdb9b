type row = {
  coeffs : float array;
  vars : int array;
  ub : float;
  origin : string;
}

type t = {
  nvars : int;
  rows : row array;
  occ : (int * float) list array;
  obj : float array;
  obj_const : float;
  flip_objective : bool;
}

(* The binary-variable check plus the normalized rows, in model order;
   [fn] names the public entry point in the error. *)
let normalized_rows ~fn model =
  for i = 0 to Ec_ilp.Model.num_vars model - 1 do
    match Ec_ilp.Model.var_kind model i with
    | Ec_ilp.Model.Binary -> ()
    | Ec_ilp.Model.Continuous _ -> invalid_arg (fn ^ ": continuous variable in a 0-1 model")
  done;
  let rows_rev = ref [] in
  let add_row origin terms ub =
    let coeffs = Array.of_list (List.map fst terms) in
    let vars = Array.of_list (List.map snd terms) in
    rows_rev := { coeffs; vars; ub; origin } :: !rows_rev
  in
  Array.iter
    (fun (c : Ec_ilp.Model.constr) ->
      let terms = Ec_ilp.Linexpr.terms c.expr in
      let rhs = c.rhs -. Ec_ilp.Linexpr.const_part c.expr in
      let neg = List.map (fun (cf, v) -> (-.cf, v)) in
      match c.relation with
      | Ec_ilp.Model.Le -> add_row c.name terms rhs
      | Ec_ilp.Model.Ge -> add_row c.name (neg terms) (-.rhs)
      | Ec_ilp.Model.Eq ->
        add_row (c.name ^ "/le") terms rhs;
        add_row (c.name ^ "/ge") (neg terms) (-.rhs))
    (Ec_ilp.Model.constrs model);
  Array.of_list (List.rev !rows_rev)

let rows_of_model model = normalized_rows ~fn:"Rows.rows_of_model" model

let of_model model =
  let nvars = Ec_ilp.Model.num_vars model in
  let rows = normalized_rows ~fn:"Rows.of_model" model in
  let occ = Array.make nvars [] in
  Array.iteri
    (fun r row ->
      Array.iteri (fun k v -> occ.(v) <- (r, row.coeffs.(k)) :: occ.(v)) row.vars)
    rows;
  let sense, obj_expr = Ec_ilp.Model.objective model in
  let flip_objective = sense = Ec_ilp.Model.Maximize in
  let sign = if flip_objective then -1.0 else 1.0 in
  let obj = Array.make nvars 0.0 in
  List.iter (fun (cf, v) -> obj.(v) <- obj.(v) +. (sign *. cf)) (Ec_ilp.Linexpr.terms obj_expr);
  let obj_const = sign *. Ec_ilp.Linexpr.const_part obj_expr in
  { nvars; rows; occ; obj; obj_const; flip_objective }

let min_activity row =
  Array.fold_left (fun acc c -> acc +. Float.min 0.0 c) 0.0 row.coeffs

let report_objective t internal =
  let with_const = internal +. t.obj_const in
  if t.flip_objective then -.with_const else with_const

let row_activity row (point : int array) =
  let acc = ref 0.0 in
  Array.iteri (fun k v -> acc := !acc +. (row.coeffs.(k) *. float_of_int point.(v))) row.vars;
  !acc

let violated_rows ?(eps = 1e-6) t point =
  let out = ref [] in
  Array.iteri
    (fun r row -> if row_activity row point > row.ub +. eps then out := r :: !out)
    t.rows;
  List.rev !out

let point_feasible ?eps t point = violated_rows ?eps t point = []

let internal_objective t point =
  let acc = ref 0.0 in
  Array.iteri (fun v c -> acc := !acc +. (c *. float_of_int point.(v))) t.obj;
  !acc
