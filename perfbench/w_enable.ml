(* The enabling-EC part of an ec-round: initial solves (Table 1's
   "EC (SC)" hot path) of f600-family random 3-SAT at scale 0.1, a fresh
   instance seed per op, through [Flow.solve_initial ~enable:Constraints
   ~solver:Backend.cdcl]. *)

open Common
module C = Ec_core

let part ~seed ~n_ops =
  (* ---- inputs: one instance per op ---- *)
  let spec = Ec_instances.Registry.scale 0.1 (Ec_instances.Registry.find "f600") in
  let rng = rng ~seed "enable" in
  let formulas =
    Array.init n_ops (fun _ ->
        let spec = { spec with Ec_instances.Registry.seed = Ec_util.Rng.int rng 1_000_000_000 } in
        (Ec_instances.Registry.build spec).Ec_instances.Registry.formula)
  in
  (* ---- traced replay of one op through each layer's entry point,
     mirroring [Flow.solve_initial ~enable] ---- *)
  let vars = ref 0 and clauses = ref 0 and conflicts = ref 0 and decisions = ref 0 in
  let replay i =
    let budget = op_budget () in
    let f = formulas.(i) in
    let enc =
      Spans.span "enabling.build" (fun () ->
          let enc = C.Encode.of_formula f in
          ignore (C.Enabling.add C.Enabling.Constraints enc);
          enc)
    in
    let model = C.Encode.model enc in
    let r =
      Spans.span "backend.solve_model" (fun () ->
          C.Backend.solve_model_response ~budget C.Backend.cdcl model)
    in
    let cnf =
      Spans.replay_only ~inside:"backend.solve_model" "cnfize.build" (fun () ->
          C.Cnfize.of_model model)
    in
    vars := !vars + Ec_cnf.Formula.num_vars cnf.C.Cnfize.formula;
    clauses := !clauses + Ec_cnf.Formula.num_clauses cnf.C.Cnfize.formula;
    conflicts := !conflicts + r.C.Backend.counters.Ec_util.Budget.spent_conflicts;
    decisions := !decisions + r.C.Backend.counters.Ec_util.Budget.spent_nodes;
    match Spans.span "encode.decode" (fun () -> C.Encode.decode enc r.C.Backend.solution) with
    | None -> None
    | Some a -> (
      match Spans.span "certify.check" (fun () -> C.Certify.check_model f a) with
      | Error _ -> None
      | Ok () -> Some (a, Spans.span "enabling.score" (fun () -> C.Enabling.flexibility_score f a)))
  in
  let answers = answers n_ops and replayed = Array.make n_ops None in
  let call i =
    let x =
      C.Flow.solve_initial ~enable:C.Enabling.Constraints ~solver:C.Backend.cdcl
        ~budget:(op_budget ()) formulas.(i)
      |> Option.map (fun r -> (r.C.Flow.assignment, r.C.Flow.flexibility))
    in
    fun () -> record answers i x
  in
  (* ---- check every answer ---- *)
  let check () =
    let verify i a =
      let vals = values_of_assignment a in
      (match check_model (cnf_of_formula formulas.(i)) vals with
      | Ok () -> ()
      | Error e -> wrong "enable op %d: %s" i e);
      if not (C.Enabling.verify formulas.(i) a) then
        wrong "enable op %d: answer lacks the enabling property" i;
      vals
    in
    List.iter (fun (i, r) -> Option.iter (fun (a, _) -> ignore (verify i a)) r) answers.differing;
    let text = Buffer.create 65536 in
    let flexibility =
      Array.init n_ops (fun i ->
          match first answers i with
          | None ->
            Buffer.add_string text (Printf.sprintf "%d:unknown\n" i);
            None
          | Some (a, flexibility) ->
            Buffer.add_string text (Printf.sprintf "%d:%s\n" i (model_text (verify i a)));
            Some flexibility)
    in
    let checked = Array.map Option.is_some flexibility in
    let per_op x = float_of_int x /. float_of_int n_ops in
    { checked;
      optimal = checked;
      preserved = Array.make n_ops None;
      flexibility;
      answers_text = Buffer.contents text;
      counts =
        [ ("cnfize.vars", per_op !vars);
          ("cnfize.clauses", per_op !clauses);
          ("backend.conflicts", per_op !conflicts);
          ("backend.decisions", per_op !decisions) ];
      mismatched = List.length answers.differing + replay_differ Fun.id replayed answers }
  in
  { call; replay = (fun i -> replayed.(i) <- Some (replay i)); check }
