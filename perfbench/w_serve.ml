(* serve: `ecsat serve --jobs 2` over stdio, driven by this process as
   one client with two sessions in flight, closed loop (each lane sends
   its next request only after the previous answer).  Every session
   runs the same lifecycle on ii8b2:

     create-session (DIMACS), solve
     8 x (add-clauses: 4 clauses anchored on the last model, solve)
     remove-vars 1, solve
     pin 1 (the last model's value), solve
     query, close

   An op is one edit+solve round (11 per session).  The whole request
   stream is generated before the timed phase by running it in-process
   ([Wire]/[Session], as the server does), which also yields the
   answers the served ones must match. *)

open Common
module Json = Ec_util.Json
module Wire = Ec_server.Wire
module Session = Ec_server.Session

let lanes = 2
let rounds_per_session = 11
let deadline_ms = 600_000

(* Nominal rounds/s on the sizing host; sets the number of passes. *)
let rate = 55.0

type kind = Edit | Solve | Tail  (** Tail: query/close, not part of an op *)

(* What an edit changes in the client's copy of the session formula. *)
type edit = Create | Add of int array list | Remove of int | Pin of int | No_edit

type request = {
  line : string;
  id : int;
  kind : kind;
  edit : edit;
  round : int;  (** op index within the run, -1 for Tail *)
}

(* ---- in-process handling, exactly as Server dispatches ---- *)

let clauses_of_lists lists = List.filter_map Ec_cnf.Clause.make_opt lists

(* The server's per-request solve budget: its deadline (never reached
   here) and a fresh cancellation flag. *)
let solve_budget () =
  Ec_util.Budget.create ~time_s:(float_of_int deadline_ms /. 1000.) ~cancel:(Atomic.make false) ()

(* How [handle] wraps each layer call: not at all, or in a span. *)
type wrap = { span : 'a. string -> (unit -> 'a) -> 'a }

let untraced = { span = (fun _ f -> f ()) }
let traced = { span = Spans.span }

(* Handle one request line against the in-process session table, as
   the server does; returns the session and model of a Sat solve. *)
let handle { span } sessions line =
  let req =
    match span "wire.parse" (fun () -> Wire.parse_request line) with
    | Ok r -> r
    | Error rej -> failwith ("request rejected: " ^ rej.Wire.rej_msg)
  in
  let id = req.Wire.req_id and sname = Option.get req.Wire.req_session in
  let ok_counts s =
    [ ("vars", Json.Int (Session.num_vars s)); ("clauses", Json.Int (Session.num_clauses s)) ]
  in
  match req.Wire.req_op with
  | Wire.Create_session { dimacs; _ } ->
    let s =
      span "session.create" (fun () ->
          Session.create ~name:sname (Ec_cnf.Dimacs.parse_string (Option.get dimacs)))
    in
    Hashtbl.replace sessions sname s;
    ignore (span "wire.render" (fun () -> Wire.ok ~session:sname ~id (ok_counts s)));
    None
  | Wire.Add_clauses lists ->
    let s = Hashtbl.find sessions sname in
    span "session.edit" (fun () -> Session.add_clauses s (clauses_of_lists lists));
    ignore (span "wire.render" (fun () -> Wire.ok ~session:sname ~id (ok_counts s)));
    None
  | Wire.Remove_vars vars ->
    let s = Hashtbl.find sessions sname in
    ignore (span "session.edit" (fun () -> Session.remove_vars s vars));
    ignore (span "wire.render" (fun () -> Wire.ok ~session:sname ~id (ok_counts s)));
    None
  | Wire.Pin lits ->
    let s = Hashtbl.find sessions sname in
    ignore (span "session.edit" (fun () -> Session.pin s lits));
    ignore
      (span "wire.render" (fun () ->
           Wire.ok ~session:sname ~id [ ("pins", Json.Int (List.length (Session.pins s))) ]));
    None
  | Wire.Solve _ -> (
    let s = Hashtbl.find sessions sname in
    let r = span "session.solve" (fun () -> Session.solve ~budget:(solve_budget ()) s) in
    match r.Session.outcome with
    | Ec_sat.Outcome.Sat model ->
      ignore
        (span "wire.render" (fun () ->
             Wire.sat ~session:sname ~id ~model ~certified:r.Session.certified
               ~degraded:r.Session.degraded ~retried:r.Session.retried ()));
      Some (s, model)
    | Ec_sat.Outcome.Unsat ->
      ignore (span "wire.render" (fun () -> Wire.unsat ~session:sname ~id ~degraded:false ()));
      None
    | Ec_sat.Outcome.Unknown reason ->
      ignore
        (span "wire.render" (fun () ->
             Wire.unknown ~session:sname ~id ~reason:(Ec_util.Budget.reason_to_string reason)
               ~degraded:r.Session.degraded ()));
      None)
  | Wire.Query ->
    let s = Hashtbl.find sessions sname in
    ignore (Wire.ok ~session:sname ~id (ok_counts s));
    None
  | Wire.Close ->
    Hashtbl.remove sessions sname;
    ignore (Wire.ok ~session:sname ~id []);
    None
  | Wire.Health | Wire.Shutdown -> None

(* ---- request generation: the in-process pre-run ---- *)

let ints xs = Json.List (List.map (fun x -> Json.Int x) xs)

type session_plan = {
  requests : request list;
  expected : Ec_cnf.Assignment.t option list;  (** per round, in-process answer *)
}

(* Session [name]'s lifecycle, generated by running it in-process: each
   anchored clause and the pin are drawn from the model the previous
   solve returned.  Rounds are numbered from [first_round], request ids
   from [first_id]. *)
let plan ~dimacs ~used rng ~name ~first_round ~first_id =
  let sessions = Hashtbl.create 2 in
  let reqs = ref [] and expected = ref [] in
  let next_id = ref first_id and round = ref first_round in
  let send kind edit op fields =
    let id = !next_id in
    incr next_id;
    let line =
      Json.to_string
        (Json.Obj
           ([ ("op", Json.String op); ("session", Json.String name); ("id", Json.Int id) ]
           @ fields))
    in
    reqs := { line; id; kind; edit; round = (if kind = Tail then -1 else !round) } :: !reqs;
    handle untraced sessions line
  in
  let last = ref None in
  let edit_solve edit op fields =
    ignore (send Edit edit op fields);
    let answer = send Solve No_edit "solve" [] in
    last := Option.map snd answer;
    expected := !last :: !expected;
    incr round
  in
  let last_model () =
    match !last with Some m -> m | None -> failwith "serve pre-run: a solve gave no model"
  in
  edit_solve Create "create-session" [ ("dimacs", Json.String dimacs) ];
  for _ = 1 to 8 do
    let m = last_model () in
    let nvars = Session.num_vars (Hashtbl.find sessions name) in
    let cs =
      List.init 4 (fun _ ->
          Ec_cnf.Clause.lits
            (Ec_cnf.Change.random_clause_satisfied_by rng m ~num_vars:nvars ~width:3))
    in
    edit_solve (Add cs) "add-clauses"
      [ ("clauses", Json.List (List.map (fun c -> ints (Array.to_list c)) cs)) ]
  done;
  let v = Ec_util.Rng.pick rng used in
  edit_solve (Remove v) "remove-vars" [ ("vars", ints [ v ]) ];
  let m = last_model () in
  let v = Ec_util.Rng.pick_list rng (Ec_cnf.Assignment.assigned_vars m) in
  let lit = if Ec_cnf.Assignment.value m v = Ec_cnf.Assignment.True then v else -v in
  edit_solve (Pin lit) "pin" [ ("lits", ints [ lit ]) ];
  ignore (send Tail No_edit "query" []);
  ignore (send Tail No_edit "close" []);
  { requests = List.rev !reqs; expected = List.rev !expected }

(* ---- the served run ---- *)

type server = {
  pid : int;
  to_srv : out_channel;
  from_srv : in_channel;
}

let start ecsat =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let argv =
    [| ecsat; "serve"; "--jobs"; string_of_int lanes; "--deadline-ms"; string_of_int deadline_ms |]
  in
  let pid = Unix.create_process ecsat argv in_r out_w Unix.stderr in
  Unix.close in_r;
  Unix.close out_w;
  { pid; to_srv = Unix.out_channel_of_descr in_w; from_srv = Unix.in_channel_of_descr out_r }

let send srv line =
  output_string srv.to_srv line;
  output_char srv.to_srv '\n';
  flush srv.to_srv

(* Shut the server down (request, then EOF), read it dry and reap it;
   a non-zero exit is a failed run. *)
let stop srv =
  (try send srv {|{"op":"shutdown","id":0}|} with Sys_error _ -> ());
  close_out_noerr srv.to_srv;
  (try
     while true do
       ignore (input_line srv.from_srv)
     done
   with End_of_file | Sys_error _ -> ());
  close_in_noerr srv.from_srv;
  match Unix.waitpid [] srv.pid with
  | _, Unix.WEXITED 0 -> ()
  | _, _ -> failwith "ecsat serve did not exit cleanly"

(* Stop a server on the failure path: kill and reap it. *)
let kill srv =
  (try Unix.kill srv.pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] srv.pid) with Unix.Unix_error _ -> ()

(* [f srv], killing [srv] if [f] raises. *)
let guarded srv f =
  match f srv with
  | x -> x
  | exception e ->
    kill srv;
    raise e

(* Response lines begin {"id":N — read N without a full parse. *)
let response_id line =
  let prefix = {|{"id":|} in
  let k = String.length prefix in
  if String.length line > k && String.sub line 0 k = prefix then
    Scanf.sscanf (String.sub line k (String.length line - k)) "%d" Fun.id
  else failwith ("unexpected server line: " ^ line)

(* A response's status and, for "sat", its model literals. *)
let answer line =
  match Json.parse line with
  | Error e -> failwith ("bad server response: " ^ e)
  | Ok j ->
    let status = Option.bind (Json.member "status" j) Json.to_string_opt in
    let model = Option.bind (Json.member "model" j) Json.to_list_opt in
    ( Option.value status ~default:"?",
      if status = Some "sat" then Option.map (List.filter_map Json.to_int_opt) model else None )

(* One pass: a fresh server, timed from start to its first health
   reply (set-up), then every lane's requests in closed loop.  Returns
   the set-up time, the loop's wall time, the server's peak RSS and
   each request's response line. *)
let serve_pass ecsat lane_reqs ~lat =
  let t0 = now () in
  let srv = start ecsat in
  guarded srv @@ fun srv ->
  send srv {|{"op":"health","id":"up"}|};
  ignore (input_line srv.from_srv);
  let setup_s = now () -. t0 in
  let responses = Hashtbl.create 1024 in
  let pos = Array.make lanes 0 and round_start = Array.make (Array.length lat) 0.0 in
  let lane_of_id = Hashtbl.create 1024 in
  Array.iteri
    (fun l reqs -> Array.iter (fun r -> Hashtbl.replace lane_of_id r.id l) reqs)
    lane_reqs;
  let issue l =
    let r = lane_reqs.(l).(pos.(l)) in
    if r.kind = Edit then round_start.(r.round) <- now ();
    send srv r.line
  in
  let t_start = now () in
  let pending = ref 0 in
  for l = 0 to lanes - 1 do
    if Array.length lane_reqs.(l) > 0 then begin
      issue l;
      incr pending
    end
  done;
  while !pending > 0 do
    let line = input_line srv.from_srv in
    let t = now () in
    let id = response_id line in
    let l = Hashtbl.find lane_of_id id in
    let r = lane_reqs.(l).(pos.(l)) in
    if r.id <> id then failwith "server answered out of order within a session";
    Hashtbl.replace responses id line;
    if r.kind = Solve then lat.(r.round) <- t -. round_start.(r.round);
    pos.(l) <- pos.(l) + 1;
    if pos.(l) < Array.length lane_reqs.(l) then issue l else decr pending
  done;
  let wall_s = now () -. t_start in
  let peak = Option.value (peak_rss_mb (string_of_int srv.pid)) ~default:0.0 in
  stop srv;
  (setup_s, wall_s, peak, responses)

let run ~seed ~seconds ~trace ~ops ~ecsat =
  let per_session = lanes * rounds_per_session in
  let n_ops = Option.value ops ~default:distinct_ops in
  let n_sessions = lanes * ((n_ops + per_session - 1) / per_session) in
  let n_ops = n_sessions * rounds_per_session in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  if not (Sys.file_exists ecsat) then failwith ("no ecsat executable at " ^ ecsat);
  (* ---- inputs: the whole request stream, from an in-process run ---- *)
  let base = (Ec_instances.Registry.build (Ec_instances.Registry.find "ii8b2")).formula in
  let base_cnf = cnf_of_formula base in
  let dimacs = Ec_cnf.Dimacs.to_string base in
  let used = Array.of_list (Ec_cnf.Formula.vars_used base) in
  let rng = rng ~seed "serve" in
  let plans =
    let next_id = ref 1 in
    Array.init n_sessions (fun k ->
        let p =
          plan ~dimacs ~used rng ~name:(Printf.sprintf "s%d" k)
            ~first_round:(k * rounds_per_session) ~first_id:!next_id
        in
        next_id := !next_id + List.length p.requests;
        p)
  in
  let expected = Array.of_list (List.concat_map (fun p -> p.expected) (Array.to_list plans)) in
  (* Lane [l] serves sessions l, l + lanes, ... back to back. *)
  let lane_reqs =
    Array.init lanes (fun l ->
        Array.of_list
          (List.concat
             (List.filteri (fun k _ -> k mod lanes = l)
                (Array.to_list (Array.map (fun p -> p.requests) plans)))))
  in
  (* ---- timed phase: one fresh server per pass ---- *)
  let passes = passes ~trace ~seconds ~rate ~min:3 in
  let lat = Array.make (passes * n_ops) 0.0 in
  let setups = Array.make passes 0.0 and peaks = Array.make passes 0.0 in
  let wall = ref 0.0 and responses = Array.make passes (Hashtbl.create 0) in
  for p = 0 to passes - 1 do
    let pass_lat = Array.make n_ops 0.0 in
    let setup_s, wall_s, peak, resp = serve_pass ecsat lane_reqs ~lat:pass_lat in
    Array.blit pass_lat 0 lat (p * n_ops) n_ops;
    setups.(p) <- setup_s;
    peaks.(p) <- peak;
    wall := !wall +. wall_s;
    responses.(p) <- resp
  done;
  let mismatches = ref 0 in
  for p = 1 to passes - 1 do
    Hashtbl.iter
      (fun id line -> if Hashtbl.find responses.(0) id <> line then incr mismatches)
      responses.(p)
  done;
  (* ---- check every answer of every pass against the client's copy;
     quality metrics and the digest come from the first pass ---- *)
  let ok = ref 0 and pres = ref 0.0 and n_pres = ref 0 and flex = ref 0.0 in
  let digest = Buffer.create 65536 in
  let check_pass p plan =
    let first = p = 0 in
    let cnf = ref base_cnf and pins = ref [] and prev = ref None and edit_ok = ref true in
    List.iter
      (fun r ->
        let line = Hashtbl.find responses.(p) r.id in
        match r.kind with
        | Tail -> ()
        | Edit -> (
          edit_ok := fst (answer line) = "ok";
          match r.edit with
          | Create | No_edit -> ()
          | Add cs -> cnf := add_clauses !cnf cs
          | Remove v -> cnf := eliminate !cnf v
          | Pin l -> pins := [ l ])
        | Solve ->
          let text =
            match answer line with
            | status, None -> "unknown " ^ status
            | _, Some lits ->
              let vals = Array.make (!cnf.nvars + 1) 0 in
              List.iter (fun l -> if abs l <= !cnf.nvars then vals.(abs l) <- compare l 0) lits;
              (match check_model !cnf vals with
              | Ok () -> ()
              | Error e -> wrong "serve round %d: %s" r.round e);
              List.iter
                (fun l ->
                  if not (lit_true vals l) then wrong "serve round %d: pin %d broken" r.round l)
                !pins;
              if first then begin
                if !edit_ok then incr ok;
                Option.iter
                  (fun old ->
                    pres := !pres +. agreement ~n:!cnf.nvars old vals;
                    incr n_pres)
                  !prev;
                prev := Some vals;
                flex :=
                  !flex
                  +. Ec_core.Enabling.flexibility_score (formula_of_cnf !cnf)
                       (assignment_of_values vals);
                if Option.map (fun m -> model_text (values_of_assignment m)) expected.(r.round)
                   <> Some (model_text vals)
                then incr mismatches
              end;
              model_text vals
          in
          if first then Buffer.add_string digest (Printf.sprintf "%d:%s\n" r.round text))
      plan.requests
  in
  for p = 0 to passes - 1 do
    Array.iter (check_pass p) plans
  done;
  let okf = float_of_int !ok in
  (* ---- traced in-process replay of the same request stream: each
     round runs untraced on one session table, then traced on another,
     so host-speed drift hits both alike ---- *)
  let layers =
    if not trace then []
    else begin
      let plain = Hashtbl.create 4 and spanned = Hashtbl.create 4 in
      let untraced_ms = Array.make n_ops 0.0 in
      let model_of = Option.map (fun m -> model_text (values_of_assignment m)) in
      let rec go = function
        | [] -> ()
        | ({ kind = Tail; _ } as r) :: rest ->
          ignore (handle untraced plain r.line);
          ignore (handle untraced spanned r.line);
          go rest
        | e :: s :: rest ->
          let (), dt =
            time (fun () ->
                ignore (handle untraced plain e.line);
                ignore (handle untraced plain s.line))
          in
          untraced_ms.(e.round) <- 1000.0 *. dt;
          let answer =
            Spans.op e.round @@ fun () ->
            ignore (handle traced spanned e.line);
            match handle traced spanned s.line with
            | None -> None
            | Some (sess, model) ->
              ignore
                (Spans.replay_only ~inside:"session.solve" "certify.check" (fun () ->
                     Ec_core.Certify.check_model (Session.formula sess) model));
              Some model
          in
          if model_of answer <> model_of expected.(e.round) then incr mismatches;
          go rest
        | [ _ ] -> failwith "serve replay: unpaired request"
      in
      Array.iter (fun p -> go p.requests) plans;
      let client_ms = Array.map (( *. ) 1000.0) lat in
      Spans.layer_metrics ~ops:n_ops ~untraced_ms ~coverage_ms:client_ms
        ~counts:[ ("server.wait_ms", mean client_ms -. mean untraced_ms) ]
        ()
    end
  in
  { setup_s = median setups;
    latencies_s = lat;
    executions = Array.length lat;
    timed_wall_s = !wall;
    attempted = n_ops;
    ok = !ok;
    preserved_pct = (if !n_pres = 0 then 0.0 else 100.0 *. !pres /. float_of_int !n_pres);
    optimal_share = okf /. float_of_int n_ops;
    flexibility_pct = (if !ok = 0 then 0.0 else 100.0 *. !flex /. okf);
    peak_rss_mb = median peaks;
    digest = Digest.to_hex (Digest.string (Buffer.contents digest));
    layers;
    mismatches = !mismatches }
