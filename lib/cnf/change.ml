type t = Formula.edit =
  | Add_clause of Clause.t
  | Remove_clause of int
  | Add_var
  | Eliminate_var of int

let to_string = function
  | Add_clause c -> "add " ^ Clause.to_string c
  | Remove_clause i -> Printf.sprintf "remove clause #%d" i
  | Add_var -> "add variable"
  | Eliminate_var v -> Printf.sprintf "eliminate v%d" v

let is_tightening = function
  | Add_clause _ | Eliminate_var _ -> true
  | Remove_clause _ | Add_var -> false

let apply f ch = Formula.edit f [ ch ]

let apply_script = Formula.edit

let random_polarity rng v = if Ec_util.Rng.bool rng then v else -v

let random_clause rng ~num_vars ~width =
  if width < 1 || width > num_vars then invalid_arg "Change.random_clause: width";
  let vars = Ec_util.Rng.sample rng width num_vars in
  let lits = List.map (fun v0 -> random_polarity rng (v0 + 1)) vars in
  Clause.make lits

let random_clause_satisfied_by rng a ~num_vars ~width =
  if width < 1 || width > num_vars then
    invalid_arg "Change.random_clause_satisfied_by: width";
  let assigned = Assignment.assigned_vars a in
  let assigned = List.filter (fun v -> v <= num_vars) assigned in
  if assigned = [] then
    invalid_arg "Change.random_clause_satisfied_by: all-DC assignment";
  (* Pin one literal to agree with the assignment, randomize the rest. *)
  let anchor = Ec_util.Rng.pick_list rng assigned in
  let anchor_lit =
    match Assignment.value a anchor with
    | Assignment.True -> anchor
    | Assignment.False -> -anchor
    | Assignment.Dc -> assert false
  in
  let rec fill acc vs_left needed =
    if needed = 0 then acc
    else
      let v = 1 + Ec_util.Rng.int rng num_vars in
      if List.exists (fun l -> Lit.var l = v) acc then
        if vs_left <= 0 then acc else fill acc (vs_left - 1) needed
      else fill (random_polarity rng v :: acc) vs_left (needed - 1)
  in
  (* vs_left bounds retries so degenerate ranges terminate. *)
  let lits = fill [ anchor_lit ] (20 * width) (width - 1) in
  Clause.make lits

let eliminable_vars f =
  (* Variables whose elimination leaves no clause empty: every clause
     containing the variable has at least one other literal. *)
  List.filter
    (fun v ->
      List.for_all
        (fun i -> Clause.size (Formula.clause f i) >= 2)
        (Formula.var_occurrences f v))
    (Formula.vars_used f)

let fast_ec_script rng f ~eliminate ~add ~clause_width =
  let rec pick_elims f acc remaining =
    if remaining = 0 then (f, List.rev acc)
    else
      match eliminable_vars f with
      | [] -> (f, List.rev acc)
      | vs ->
        let v = Ec_util.Rng.pick_list rng vs in
        pick_elims (Formula.eliminate_var f v) (Eliminate_var v :: acc) (remaining - 1)
  in
  let f_elim, elims = pick_elims f [] eliminate in
  let eliminated = List.filter_map (function Eliminate_var v -> Some v | Add_clause _ | Remove_clause _ | Add_var -> None) elims in
  let surviving =
    List.filter (fun v -> not (List.mem v eliminated)) (Formula.vars_used f_elim)
  in
  let surviving = match surviving with [] -> Formula.vars_used f | vs -> vs in
  let surviving_arr = Array.of_list surviving in
  let add_one _ =
    let width = min clause_width (Array.length surviving_arr) in
    let width = max 1 width in
    let picked = Ec_util.Rng.sample rng width (Array.length surviving_arr) in
    let lits = List.map (fun i -> random_polarity rng surviving_arr.(i)) picked in
    Add_clause (Clause.make lits)
  in
  elims @ List.init add add_one

let preserving_ec_script ?satisfiable rng f ~reference ~add_vars ~del_vars ~add_clauses
    ~del_clauses ~clause_width =
  (* Order: delete clauses, eliminate variables, add variables, add
     clauses.  Clause deletions and variable additions only loosen.
     Tightening steps (eliminations, clause additions) are drawn
     freely and validated against [satisfiable] when provided —
     rejected draws are retried a bounded number of times; otherwise a
     constructive fallback anchors them on [reference]. *)
  let script = ref [] in
  let f = ref f in
  let emit ch =
    script := ch :: !script;
    f := apply !f ch
  in
  let accepts f' =
    match satisfiable with None -> true | Some check -> check f'
  in
  for _ = 1 to del_clauses do
    let n = Formula.num_clauses !f in
    if n > 1 then emit (Remove_clause (Ec_util.Rng.int rng n))
  done;
  let dropped = ref [] in
  for _ = 1 to del_vars do
    let candidates =
      match satisfiable with
      | Some _ -> eliminable_vars !f
      | None ->
        (* Constructive mode: the reference must survive, i.e. no
           clause relied on the variable alone ([flip_breaks] empty). *)
        List.filter (fun v -> Ksat.flip_breaks !f reference v = []) (eliminable_vars !f)
    in
    let rec try_pick remaining candidates =
      if remaining = 0 || candidates = [] then ()
      else begin
        let v = Ec_util.Rng.pick_list rng candidates in
        let f' = apply !f (Eliminate_var v) in
        if accepts f' then begin
          emit (Eliminate_var v);
          dropped := v :: !dropped
        end
        else try_pick (remaining - 1) (List.filter (fun w -> w <> v) candidates)
      end
    in
    try_pick 8 candidates
  done;
  for _ = 1 to add_vars do
    emit Add_var
  done;
  (* Eliminated variables become DC in the reference.  Marking them
     only now changes nothing above: an eliminated variable no longer
     occurs in [!f], so [flip_breaks] never reads its value. *)
  let reference =
    Assignment.init (Assignment.num_vars reference) (fun v ->
        if List.mem v !dropped then Assignment.Dc else Assignment.value reference v)
  in
  let reference_now = Assignment.extend reference (Formula.num_vars !f) in
  for _ = 1 to add_clauses do
    let free_clause () =
      random_clause rng ~num_vars:(Formula.num_vars !f) ~width:clause_width
    in
    let anchored () =
      random_clause_satisfied_by rng reference_now ~num_vars:(Formula.num_vars !f)
        ~width:clause_width
    in
    match satisfiable with
    | None -> emit (Add_clause (anchored ()))
    | Some _ ->
      let rec try_add remaining =
        if remaining = 0 then emit (Add_clause (anchored ()))
        else begin
          let c = free_clause () in
          if accepts (apply !f (Add_clause c)) then emit (Add_clause c)
          else try_add (remaining - 1)
        end
      in
      try_add 8
  done;
  List.rev !script
