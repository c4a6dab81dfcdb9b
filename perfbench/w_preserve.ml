(* The preserving-EC part of an ec-round: Table-3 change scripts on f600
   at paper size, each re-solved by core-guided MaxSAT through
   [Flow.apply_change_response ~strategy:(Preserve (Sat_maxsat
   default_options))] (jobs = 1). *)

open Common
module C = Ec_core

let engine = C.Preserving.Sat_maxsat Ec_sat.Maxsat.default_options

(* Table 3's vetting of tightening draws ("making sure that we did not
   make the instance non-satisfiable"): the planted model is a witness
   when it still satisfies the draw; otherwise a work-budgeted CDCL
   call decides, as in [Ec_harness.Table3]. *)
let satisfiable planted f =
  Ec_cnf.Assignment.satisfies (Ec_cnf.Assignment.extend planted (Ec_cnf.Formula.num_vars f)) f
  ||
  let options = { Ec_sat.Cdcl.default_options with budget = op_budget () } in
  match Ec_sat.Cdcl.solve_formula ~options f with
  | Ec_sat.Outcome.Sat _ -> true
  | Ec_sat.Outcome.Unsat | Ec_sat.Outcome.Unknown _ -> false

let instance () = Ec_instances.Registry.build (Ec_instances.Registry.find "f600")

(* The set-up: the initial solve the change scripts start from. *)
let initial base = C.Flow.solve_initial ~solver:C.Backend.cdcl ~budget:(op_budget ()) base

let part ~seed ~n_ops ~(inst : Ec_instances.Registry.instance) ~(initial : C.Flow.initial) =
  let base = inst.Ec_instances.Registry.formula in
  let base_cnf = cnf_of_formula base in
  let a0 = initial.C.Flow.assignment in
  let ref_vals = values_of_assignment a0 in
  (match check_model base_cnf ref_vals with
  | Ok () -> ()
  | Error e -> wrong "initial model of f600: %s" e);
  (* ---- inputs: scripts drawn against the initial model, vetted ---- *)
  let rng = rng ~seed "preserve" in
  let scripts =
    Array.init n_ops (fun _ ->
        Ec_cnf.Change.preserving_ec_script
          ~satisfiable:(satisfiable inst.Ec_instances.Registry.planted)
          rng base ~reference:a0 ~add_vars:5 ~del_vars:5 ~add_clauses:5 ~del_clauses:5
          ~clause_width:3)
  in
  (* ---- traced replay of one op through each layer's entry point,
     mirroring [Flow]'s Preserve strategy ---- *)
  let probes = ref 0 and encoded = ref 0 and cores = ref 0 and conflicts = ref 0 in
  let replay i =
    let budget = op_budget () in
    let f' = Spans.span "cnf.apply" (fun () -> Ec_cnf.Change.apply_script base scripts.(i)) in
    let reference = Ec_cnf.Assignment.extend a0 (Ec_cnf.Formula.num_vars f') in
    let r =
      Spans.span "preserving.resolve" (fun () -> C.Preserving.resolve ~engine ~budget f' ~reference)
    in
    let w = r.C.Preserving.work in
    probes := !probes + w.C.Preserving.probes;
    encoded := !encoded + w.C.Preserving.clauses_encoded;
    cores := !cores + w.C.Preserving.cores;
    conflicts := !conflicts + r.C.Preserving.counters.Ec_util.Budget.spent_conflicts;
    match r.C.Preserving.solution with
    | None -> (None, false)
    | Some a -> (
      match Spans.span "certify.check" (fun () -> C.Certify.check_model f' a) with
      | Ok () -> (Some a, r.C.Preserving.optimal)
      | Error _ -> (None, false))
  in
  let answers = answers n_ops and replayed = Array.make n_ops None in
  let call i =
    let r =
      C.Flow.apply_change_response ~strategy:(C.Flow.Preserve engine) ~solver:C.Backend.cdcl
        ~budget:(op_budget ()) ~jobs:1 initial scripts.(i)
    in
    let x = (Option.map (fun u -> u.C.Flow.new_assignment) r.C.Flow.result, r.C.Flow.reason) in
    fun () -> record answers i x
  in
  (* Sat_maxsat stops with [Completed] exactly when it proved the
     optimum ([Preserving.result.optimal]). *)
  let proved (answer, reason) = answer <> None && reason = Ec_util.Budget.Completed in
  (* ---- check every answer ---- *)
  let check () =
    let verify i a =
      let cnf = apply_script base_cnf scripts.(i) in
      let vals = values_of_assignment a in
      (match check_model cnf vals with
      | Ok () -> ()
      | Error e -> wrong "preserve op %d: %s" i e);
      (cnf, vals)
    in
    List.iter (fun (i, (a, _)) -> Option.iter (fun a -> ignore (verify i a)) a) answers.differing;
    let text = Buffer.create 65536 in
    let preserved =
      Array.init n_ops (fun i ->
          match first answers i with
          | None, reason ->
            Buffer.add_string text
              (Printf.sprintf "%d:unknown %s\n" i (Ec_util.Budget.reason_to_string reason));
            None
          | (Some a, _) as r ->
            let cnf, vals = verify i a in
            Buffer.add_string text
              (Printf.sprintf "%d:%s%s\n" i (if proved r then "opt " else "") (model_text vals));
            Some (agreement ~n:cnf.nvars ref_vals vals))
    in
    let per_op x = float_of_int x /. float_of_int n_ops in
    { checked = Array.map Option.is_some preserved;
      optimal = Array.init n_ops (fun i -> proved (first answers i));
      preserved;
      flexibility = Array.make n_ops None;
      answers_text = Buffer.contents text;
      counts =
        [ ("preserving.probes", per_op !probes);
          ("preserving.clauses_encoded", per_op !encoded);
          ("preserving.cores", per_op !cores);
          ("preserving.conflicts", per_op !conflicts) ];
      mismatched =
        List.length answers.differing
        + replay_differ (fun r -> (fst r, proved r)) replayed answers }
  in
  { call; replay = (fun i -> replayed.(i) <- Some (replay i)); check }
