type t = {
  formula : Ec_cnf.Formula.t;
  model_vars : int;
}

exception Unsupported of string

let eps = 1e-9

(* CNF literal for "model variable v (0-based) is 1/0". *)
let lit_of ~positive v = if positive then v + 1 else -(v + 1)

let translate_row ~next_var (row : Ec_ilpsolver.Rows.row) =
  (* Σ_{P} x + Σ_{N} (1-x) <= b + |N| over literals. *)
  let lits = ref [] in
  let nneg = ref 0 in
  Array.iteri
    (fun k v ->
      let c = row.Ec_ilpsolver.Rows.coeffs.(k) in
      if abs_float (c -. 1.0) < eps then lits := lit_of ~positive:true v :: !lits
      else if abs_float (c +. 1.0) < eps then begin
        incr nneg;
        lits := lit_of ~positive:false v :: !lits
      end
      else
        raise
          (Unsupported
             (Printf.sprintf "row %s: coefficient %g" row.Ec_ilpsolver.Rows.origin c)))
    row.Ec_ilpsolver.Rows.vars;
  (* Fractional bounds tighten to the floor (sound for <= rows over
     integral activities). *)
  let bound = row.Ec_ilpsolver.Rows.ub +. float_of_int !nneg in
  let k = int_of_float (floor (bound +. 1e-6)) in
  let lits = !lits in
  let n = List.length lits in
  if k < 0 then
    (* No 0-1 point satisfies the row. *)
    { Ec_sat.Cardinality.clauses = [ Ec_cnf.Clause.make [] ]; next_var }
  else if k >= n then { Ec_sat.Cardinality.clauses = []; next_var }
  else if k = n - 1 then
    (* "not all true": one clause, no auxiliaries. *)
    { Ec_sat.Cardinality.clauses = [ Ec_cnf.Clause.make (List.map Ec_cnf.Lit.negate lits) ];
      next_var }
  else Ec_sat.Cardinality.at_most ~next_var lits k

let of_model model =
  let rows = Ec_ilpsolver.Rows.rows_of_model model in
  let model_vars = Ec_ilp.Model.num_vars model in
  let next_var = ref (model_vars + 1) in
  let clauses = ref [] in
  Array.iter
    (fun row ->
      let enc = translate_row ~next_var:!next_var row in
      next_var := enc.Ec_sat.Cardinality.next_var;
      clauses := List.rev_append enc.Ec_sat.Cardinality.clauses !clauses)
    rows;
  let num_vars = max model_vars (!next_var - 1) in
  { formula = Ec_cnf.Formula.create ~num_vars (List.rev !clauses); model_vars }

let point_of_assignment t a =
  Array.init t.model_vars (fun v ->
      match Ec_cnf.Assignment.value a (v + 1) with
      | Ec_cnf.Assignment.True -> 1.0
      | Ec_cnf.Assignment.False | Ec_cnf.Assignment.Dc -> 0.0)

let supported model =
  match of_model model with
  | _ -> true
  | exception Unsupported _ -> false
  | exception Invalid_argument _ -> false
