module F = Ec_cnf.Formula
module A = Ec_cnf.Assignment
module O = Ec_sat.Outcome
module Budget = Ec_util.Budget
module Fault = Ec_util.Fault

type t = {
  sname : string;
  mutable formula : F.t;          (* source of truth, mirrors the engine *)
  mutable engine : Ec_sat.Cdcl.Session.t;
  mutable epins : Ec_cnf.Lit.t list;
  mutable model : A.t option;
  mutable rev : int;
  mutable nsolves : int;
  mutable degraded_last : bool;
  mutable rebuilds : int;         (* seeds the reseeded retry engines *)
}

(* Deterministic per-session engine options: the base seed is derived
   from the session name so two sessions never share RNG streams, and
   each containment rebuild bumps the seed — "retry with a reseeded
   engine", observable and replayable. *)
let options_for ~name ~rebuilds =
  { Ec_sat.Cdcl.default_options with
    seed = Ec_sat.Cdcl.default_options.seed lxor Hashtbl.hash name lxor (0x9E37 * rebuilds)
  }

let rebuild t =
  t.rebuilds <- t.rebuilds + 1;
  t.engine <-
    Ec_sat.Cdcl.Session.create
      ~options:(options_for ~name:t.sname ~rebuilds:t.rebuilds)
      t.formula

let create ~name formula =
  { sname = name;
    formula;
    engine =
      Ec_sat.Cdcl.Session.create ~options:(options_for ~name ~rebuilds:0) formula;
    epins = [];
    model = None;
    rev = 0;
    nsolves = 0;
    degraded_last = false;
    rebuilds = 0 }

let name t = t.sname

let formula t = t.formula

let num_vars t = F.num_vars t.formula

let num_clauses t = F.num_clauses t.formula

let add_clauses t clauses =
  t.formula <- F.add_clauses t.formula clauses;
  Ec_sat.Cdcl.Session.add_clauses t.engine clauses;
  t.rev <- t.rev + 1

let remove_vars t vars =
  match List.find_opt (fun v -> v < 1 || v > F.num_vars t.formula) vars with
  | Some v ->
    Error (Printf.sprintf "variable %d out of range (session has %d)" v
             (F.num_vars t.formula))
  | None ->
    t.formula <- F.edit t.formula (List.map (fun v -> F.Eliminate_var v) vars);
    t.rev <- t.rev + 1;
    (* Removal weakens the formula: retained learnt clauses are no
       longer implied, so the warm engine must be rebuilt. *)
    rebuild t;
    Ok ()

let pin t lits =
  match List.find_opt (fun l -> Ec_cnf.Lit.var l > F.num_vars t.formula) lits with
  | Some l ->
    Error (Printf.sprintf "pin %d references a variable above the session's %d"
             l (F.num_vars t.formula))
  | None ->
    t.epins <- lits;
    t.rev <- t.rev + 1;
    Ok ()

let pins t = t.epins

let last_model t = t.model

let revision t = t.rev

let solves t = t.nsolves

let is_degraded t = t.degraded_last

type solve_result = {
  outcome : O.t;
  certified : bool;
  degraded : bool;
  retried : bool;
}

(* Certification: independent of the engine, O(model + formula).  A
   [Sat] under assumptions must also honor every pin — that is part of
   the answer's contract, not the engine's bookkeeping. *)
let certify t = function
  | O.Sat a -> (
    match Ec_core.Certify.check_model t.formula a with
    | Error detail -> Error detail
    | Ok () -> (
      match List.find_opt (fun l -> not (A.lit_true a l)) t.epins with
      | Some l -> Error (Printf.sprintf "model violates pin %d" l)
      | None -> Ok ()))
  | O.Unsat | O.Unknown _ -> Ok ()

let qualified t = "serve.session:" ^ t.sname

(* One engine attempt under the chaos failpoints.  [Error] is either
   an escaped exception or a failed certificate — the containment
   cases; an honest [Unknown] (deadline, cancellation) is [Ok]. *)
let attempt t ~budget =
  match
    Fault.maybe_raise "serve.session";
    Fault.maybe_raise (qualified t);
    Fault.maybe_delay "serve.session";
    Fault.maybe_delay (qualified t);
    let budget = Fault.burn "serve.session" budget in
    let budget = Fault.burn (qualified t) budget in
    Ec_sat.Cdcl.Session.solve ~assumptions:t.epins ~budget t.engine
  with
  | outcome -> (
    match certify t outcome with
    | Ok () -> Ok outcome
    | Error detail -> Error ("certification: " ^ detail))
  | exception e -> Error (Printexc.to_string e)

let span_args t =
  [ ("session", t.sname); ("pins", string_of_int (List.length t.epins)) ]

let degraded_metric = Ec_util.Metrics.counter "serve.session.degraded"

let retried_metric = Ec_util.Metrics.counter "serve.session.retries"

let solve ~budget t =
  Ec_util.Trace.span ~cat:"serve" ~args:(span_args t) "serve.session" @@ fun () ->
  t.nsolves <- t.nsolves + 1;
  t.degraded_last <- false;
  let finish ~retried ~certified outcome =
    (match outcome with
    | O.Sat a when certified -> t.model <- Some a
    | _ -> ());
    { outcome; certified; degraded = false; retried }
  in
  match attempt t ~budget with
  | Ok (O.Sat _ as outcome) -> finish ~retried:false ~certified:true outcome
  | Ok outcome -> finish ~retried:false ~certified:false outcome
  | Error first_detail -> (
    (* Containment: rebuild the engine with a fresh seed (a crashed
       solve may have left it mid-flight) and retry once. *)
    Ec_util.Metrics.incr retried_metric;
    rebuild t;
    match attempt t ~budget with
    | Ok (O.Sat _ as outcome) -> finish ~retried:true ~certified:true outcome
    | Ok outcome -> finish ~retried:true ~certified:false outcome
    | Error second_detail ->
      (* Degrade this request only; the session (and every other
         session) keeps serving.  Both failures are reported. *)
      t.degraded_last <- true;
      Ec_util.Metrics.incr degraded_metric;
      rebuild t;
      { outcome =
          O.Unknown
            (Budget.Engine_failure
               ( "serve.session",
                 Printf.sprintf "%s; retry: %s" first_detail second_detail ));
        certified = false;
        degraded = true;
        retried = true })
