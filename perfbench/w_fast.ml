(* The fast-EC part of an ec-round: Table-2 change scripts on ii16a1 at
   paper size, each re-solved by the Figure-2 cone through
   [Flow.apply_change_response ~strategy:Fast] (jobs = 1, so the cone
   never races a full solve). *)

open Common
module C = Ec_core

(* The Table-2 script ([Ec_cnf.Change.fast_ec_script]'s distribution):
   eliminate [elim] distinct variables, each chosen uniformly among the
   used variables whose elimination leaves no clause empty, then add
   [add] random [width]-clauses over the surviving used variables.
   Rejection sampling on clause sizes keeps generation O(occurrences)
   rather than O(formula) per draw. *)
let table2_script rng f ~used ~elim ~add ~width =
  let sizes = Array.map Ec_cnf.Clause.size (Ec_cnf.Formula.clauses f) in
  let eliminated = Hashtbl.create 8 in
  let eliminable v =
    (not (Hashtbl.mem eliminated v))
    && List.for_all (fun i -> sizes.(i) >= 2) (Ec_cnf.Formula.var_occurrences f v)
  in
  let rec pick tries =
    if tries = 0 then None
    else
      let v = Ec_util.Rng.pick rng used in
      if eliminable v then Some v else pick (tries - 1)
  in
  let elims =
    List.filter_map
      (fun _ ->
        match pick 10_000 with
        | None -> None
        | Some v ->
          Hashtbl.replace eliminated v ();
          List.iter (fun i -> sizes.(i) <- sizes.(i) - 1) (Ec_cnf.Formula.var_occurrences f v);
          Some (Ec_cnf.Change.Eliminate_var v))
      (List.init elim Fun.id)
  in
  let surviving =
    Array.of_list (List.filter (fun v -> not (Hashtbl.mem eliminated v)) (Array.to_list used))
  in
  let n = Array.length surviving in
  let clause _ =
    let picked = Ec_util.Rng.sample rng (min width n) n in
    let lit i = if Ec_util.Rng.bool rng then surviving.(i) else -surviving.(i) in
    Ec_cnf.Change.Add_clause (Ec_cnf.Clause.make (List.map lit picked))
  in
  elims @ List.init add clause

let instance () = (Ec_instances.Registry.build (Ec_instances.Registry.find "ii16a1")).formula

(* The set-up: the initial solve the change scripts start from. *)
let initial base = C.Flow.solve_initial ~solver:C.Backend.cdcl ~budget:(op_budget ()) base

let part ~seed ~n_ops ~base ~(initial : C.Flow.initial) =
  (* ---- inputs, all before any timing ---- *)
  let base_cnf = cnf_of_formula base in
  let used = Array.of_list (Ec_cnf.Formula.vars_used base) in
  let rng = rng ~seed "fast-stream" in
  let scripts =
    Array.init n_ops (fun _ -> table2_script rng base ~used ~elim:3 ~add:10 ~width:3)
  in
  let ref_vals = values_of_assignment initial.C.Flow.assignment in
  (match check_model base_cnf ref_vals with
  | Ok () -> ()
  | Error e -> wrong "initial model of ii16a1: %s" e);
  (* ---- traced replay of one op through each layer's entry point,
     mirroring [Flow]'s Fast strategy (cone, merge, certify; full
     warm-started re-solve when the cone fails) ---- *)
  let cone_vars = ref 0 and cone_clauses = ref 0 and fallbacks = ref 0 in
  let conflicts = ref 0 and decisions = ref 0 in
  let spend (r : C.Backend.response) =
    conflicts := !conflicts + r.C.Backend.counters.Ec_util.Budget.spent_conflicts;
    decisions := !decisions + r.C.Backend.counters.Ec_util.Budget.spent_nodes
  in
  let replay i =
    let budget = op_budget () in
    let f' = Spans.span "cnf.apply" (fun () -> Ec_cnf.Change.apply_script base scripts.(i)) in
    let reference =
      Ec_cnf.Assignment.extend initial.C.Flow.assignment (Ec_cnf.Formula.num_vars f')
    in
    let s = Spans.span "fast_ec.simplify" (fun () -> C.Fast_ec.simplify f' reference) in
    cone_vars := !cone_vars + List.length s.C.Fast_ec.vars;
    cone_clauses := !cone_clauses + List.length s.C.Fast_ec.marked;
    let cone, spent =
      if s.C.Fast_ec.already_satisfied then (Some reference, Ec_util.Budget.zero)
      else begin
        let r =
          Spans.span "backend.solve" (fun () ->
              C.Backend.solve_response ~budget C.Backend.cdcl s.C.Fast_ec.sub_formula)
        in
        spend r;
        match r.C.Backend.outcome with
        | Ec_sat.Outcome.Sat sub ->
          let merged =
            Spans.span "fast_ec.merge" (fun () ->
                Ec_cnf.Assignment.merge_on ~vars:s.C.Fast_ec.vars ~base:reference ~overlay:sub)
          in
          ( (match Spans.span "certify.check" (fun () -> C.Certify.check_model f' merged) with
            | Ok () -> Some merged
            | Error _ -> None),
            r.C.Backend.counters )
        | Ec_sat.Outcome.Unsat | Ec_sat.Outcome.Unknown _ -> (None, r.C.Backend.counters)
      end
    in
    let model =
      match cone with
      | Some a -> Some a
      | None -> (
        incr fallbacks;
        let r =
          Spans.span "backend.solve" (fun () ->
              C.Backend.solve_response
                ~budget:(Ec_util.Budget.consume budget spent)
                (C.Backend.with_phase_hint C.Backend.cdcl reference)
                f')
        in
        spend r;
        match r.C.Backend.outcome with Ec_sat.Outcome.Sat a -> Some a | _ -> None)
    in
    Option.bind model (fun a ->
        match Spans.span "certify.check" (fun () -> C.Certify.check_model f' a) with
        | Ok () -> Some a
        | Error _ -> None)
  in
  let answers = answers n_ops and replayed = Array.make n_ops None in
  let call i =
    let r =
      C.Flow.apply_change_response ~strategy:C.Flow.Fast ~solver:C.Backend.cdcl
        ~budget:(op_budget ()) ~jobs:1 initial scripts.(i)
    in
    (* Keep only the answer: retaining each op's formula would grow the
       live heap, and with it the GC work of later ops. *)
    let x = (Option.map (fun u -> u.C.Flow.new_assignment) r.C.Flow.result, r.C.Flow.reason) in
    fun () -> record answers i x
  in
  (* ---- check every answer ---- *)
  let check () =
    let verify i a =
      let cnf = apply_script base_cnf scripts.(i) in
      let vals = values_of_assignment a in
      (match check_model cnf vals with
      | Ok () -> ()
      | Error e -> wrong "fast-stream op %d: %s" i e);
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
          | Some a, _ ->
            let cnf, vals = verify i a in
            Buffer.add_string text (Printf.sprintf "%d:%s\n" i (model_text vals));
            Some (agreement ~n:cnf.nvars ref_vals vals))
    in
    let checked = Array.map Option.is_some preserved in
    let per_op x = float_of_int x /. float_of_int n_ops in
    { checked;
      optimal = checked;
      preserved;
      flexibility = Array.make n_ops None;
      answers_text = Buffer.contents text;
      counts =
        [ ("fast_ec.cone_vars", per_op !cone_vars);
          ("fast_ec.cone_clauses", per_op !cone_clauses);
          ("fast_ec.fallback_share", per_op !fallbacks);
          ("backend.conflicts", per_op !conflicts);
          ("backend.decisions", per_op !decisions) ];
      mismatched = List.length answers.differing + replay_differ fst replayed answers }
  in
  { call; replay = (fun i -> replayed.(i) <- Some (replay i)); check }
