(* ec-round: the paper's three EC entry points, in-process, one call of
   each per op ("round"), each on its own table's input:

     enable    Table 1: Flow.solve_initial ~enable:Constraints of a fresh
               f600-family instance at scale 0.1 (W_enable)
     fast      Table 2: Flow.apply_change_response ~strategy:Fast of a
               Table-2 script on ii16a1 (W_fast)
     preserve  Table 3: Flow.apply_change_response ~strategy:(Preserve
               (Sat_maxsat default_options)) of a vetted Table-3 script
               on f600 (W_preserve)

   all with jobs = 1.  An op's latency is the whole round. *)

open Common

(* Nominal rounds/s on the sizing host; sets the number of passes. *)
let rate = 2.0

let run ~seed ~seconds ~trace ~ops ~ecsat:_ =
  let n_ops = Option.value ops ~default:distinct_ops in
  let fast_base = W_fast.instance () and pres_inst = W_preserve.instance () in
  (* ---- set-up: the initial solves the change scripts start from ---- *)
  let initial_setup =
    setup (fun () ->
        ( W_fast.initial fast_base,
          W_preserve.initial pres_inst.Ec_instances.Registry.formula ))
  in
  let fast_initial, pres_initial =
    match initial_setup.result with
    | Some f, Some p -> (f, p)
    | _ -> wrong "initial solve of ii16a1 or f600 failed"
  in
  (* ---- inputs, all before any timing ---- *)
  let parts =
    [ W_enable.part ~seed ~n_ops;
      W_fast.part ~seed ~n_ops ~base:fast_base ~initial:fast_initial;
      W_preserve.part ~seed ~n_ops ~inst:pres_inst ~initial:pres_initial ]
  in
  (* ---- timed phase, tracing off: every round [passes] times over;
     between rounds (untimed) the answers are filed, the traced run
     replays the round right beside its untraced execution (so
     host-speed drift hits both alike), and the set-up is re-timed
     [setup_spread] times, evenly spaced ---- *)
  let passes = passes ~trace ~seconds ~rate ~min:1 in
  let times = Array.make (passes * n_ops) 0.0 in
  let hooks_s = ref 0.0 in
  let hook f = hooks_s := !hooks_s +. snd (time f) in
  let every = max 1 (passes * n_ops / setup_spread) in
  let t0 = now () in
  for p = 0 to passes - 1 do
    for i = 0 to n_ops - 1 do
      let filers, dt = time (fun () -> List.map (fun part -> part.call i) parts) in
      let j = (p * n_ops) + i in
      times.(j) <- dt;
      hook (fun () ->
          List.iter (fun file -> file ()) filers;
          if trace then Spans.op i (fun () -> List.iter (fun part -> part.replay i) parts));
      if j mod every = 0 && j / every < setup_spread then hook initial_setup.again
    done
  done;
  let wall_s = now () -. t0 -. !hooks_s in
  let peak_rss_mb = Option.value (peak_rss_mb "self") ~default:0.0 in
  (* ---- check every answer ---- *)
  let results = List.map (fun part -> part.check ()) parts in
  let all f = Array.init n_ops (fun i -> List.for_all (fun r -> (f r).(i)) results) in
  let checked = all (fun r -> r.checked) and optimal = all (fun r -> r.optimal) in
  let count a = Array.fold_left (fun k b -> if b then k + 1 else k) 0 a in
  let mean_pct f =
    let xs = List.concat_map (fun r -> List.filter_map Fun.id (Array.to_list (f r))) results in
    if xs = [] then 0.0 else 100.0 *. mean (Array.of_list xs)
  in
  (* Counts of a layer that two parts share (the backend counts) add up
     per round. *)
  let counts =
    List.fold_left
      (fun acc (k, v) ->
        match List.assoc_opt k acc with
        | Some v0 -> (k, v0 +. v) :: List.remove_assoc k acc
        | None -> (k, v) :: acc)
      []
      (List.concat_map (fun r -> r.counts) results)
  in
  let layers =
    if not trace then []
    else
      Spans.layer_metrics ~ops:n_ops
        ~untraced_ms:(Array.map (fun s -> 1000.0 *. s) times)
        ~counts:(List.rev counts) ()
  in
  { setup_s = initial_setup.median_s ();
    latencies_s = times;
    executions = Array.length times;
    timed_wall_s = wall_s;
    attempted = n_ops;
    ok = count checked;
    preserved_pct = mean_pct (fun r -> r.preserved);
    optimal_share = float_of_int (count optimal) /. float_of_int n_ops;
    flexibility_pct = mean_pct (fun r -> r.flexibility);
    peak_rss_mb;
    digest =
      Digest.to_hex (Digest.string (String.concat "" (List.map (fun r -> r.answers_text) results)));
    layers;
    mismatches = List.fold_left (fun k r -> k + r.mismatched) 0 results }
