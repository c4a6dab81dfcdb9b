(* In-memory spans of the traced run, recorded by the benchmark around
   its calls into each layer's public entry points (nothing is added
   inside the program).  One root span per op; layer spans are its
   children.

   Some entry points repeat a layer's work internally
   ([Backend.solve_model_response] translates its model through
   [Cnfize]; [Session.solve] certifies its model).  The replay then
   calls that inner layer once more on the same input, right after the
   outer call, as a [replay_only] span: its time is charged to the
   inner layer and subtracted from the outer one, and it is left out of
   the op's comparable wall time, because the untraced op never runs
   that work twice. *)

type span = {
  id : int;
  name : string;
  op : int;
  parent : int;  (** enclosing span, -1 for an op root *)
  inside : int;  (** span whose work a replay-only call repeats, or -1 *)
  t0 : float;
  t1 : float;
}

let recorded : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []
let current_op = ref 0
let last_closed : (string, int) Hashtbl.t = Hashtbl.create 16

let record ~inside name f =
  let id = !next_id in
  incr next_id;
  let parent = match !stack with p :: _ -> p | [] -> -1 in
  let inside =
    match inside with
    | None -> -1
    | Some outer -> Option.value (Hashtbl.find_opt last_closed outer) ~default:(-1)
  in
  stack := id :: !stack;
  let t0 = Common.now () in
  let close () =
    let t1 = Common.now () in
    stack := List.tl !stack;
    Hashtbl.replace last_closed name id;
    recorded := { id; name; op = !current_op; parent; inside; t0; t1 } :: !recorded
  in
  Fun.protect ~finally:close f

(* A layer span of the current op. *)
let span name f = record ~inside:None name f

(* A second call into an inner layer whose work the most recent
   [inside] span already did once (see the header). *)
let replay_only ~inside name f = record ~inside:(Some inside) name f

(* Op [i]'s root span. *)
let op i f =
  current_op := i;
  record ~inside:None "op" f

let dur s = s.t1 -. s.t0

type summary = {
  self_ms : (string * float) list;  (** layer -> self-time summed over ops, ms *)
  op_ms : float array;              (** per op: root wall minus replay-only calls *)
}

let summarize ~ops =
  let all = List.rev !recorded in
  let covered = Hashtbl.create 1024 in
  let charge id d =
    if id >= 0 then
      Hashtbl.replace covered id (d +. Option.value (Hashtbl.find_opt covered id) ~default:0.0)
  in
  List.iter
    (fun s ->
      charge s.parent (dur s);
      charge s.inside (dur s))
    all;
  let self = Hashtbl.create 32 in
  let op_ms = Array.make ops 0.0 in
  List.iter
    (fun s ->
      let own = dur s -. Option.value (Hashtbl.find_opt covered s.id) ~default:0.0 in
      if s.parent = -1 then op_ms.(s.op) <- op_ms.(s.op) +. (1000.0 *. dur s)
      else begin
        if s.inside >= 0 then op_ms.(s.op) <- op_ms.(s.op) -. (1000.0 *. dur s);
        Hashtbl.replace self s.name
          ((1000.0 *. own) +. Option.value (Hashtbl.find_opt self s.name) ~default:0.0)
      end)
    all;
  { self_ms = Hashtbl.fold (fun k v acc -> (k, v) :: acc) self [] |> List.sort compare;
    op_ms }

(* Chrome trace-event JSON of every span (load in chrome://tracing or
   Perfetto); one thread row per op. *)
let write_chrome path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then output_char oc ',';
      Printf.fprintf oc
        "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.1f,\"dur\":%.1f,\
         \"args\":{\"id\":%d,\"parent\":%d,\"inside\":%d}}"
        s.name s.op (s.t0 *. 1e6) (dur s *. 1e6) s.id s.parent s.inside)
    (List.rev !recorded);
  output_string oc "]}\n"

(* The per-layer metrics of a traced run over [ops] ops: each layer's
   self-time per op ("<layer>_ms"), the given per-op [counts], the
   tracing overhead (traced vs [untraced_ms] op p50) and the share of
   untraced op time ([coverage_ms], default [untraced_ms]) that layer
   self-times account for. *)
let layer_metrics ?coverage_ms ~ops ~untraced_ms ~counts () =
  let coverage_ms = Option.value coverage_ms ~default:untraced_ms in
  let s = summarize ~ops in
  let per_op v = v /. float_of_int ops in
  let layers = List.map (fun (name, total) -> (name ^ "_ms", per_op total)) s.self_ms in
  let covered = List.fold_left (fun acc (_, t) -> acc +. t) 0.0 s.self_ms in
  layers @ counts
  @ [ ("trace.overhead_pct",
       100.0 *. ((Common.median s.op_ms /. Common.median untraced_ms) -. 1.0));
      ("trace.coverage_pct", 100.0 *. per_op covered /. Common.mean coverage_ms) ]
