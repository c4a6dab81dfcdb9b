(* The EC benchmark.  One run = one workload, one seed:

     ecbench.exe --workload W --seed N --seconds S --trace 0|1
                 [--ops K] [--ecsat PATH]

   It generates every input from the seed, sets up, runs the timed ops
   with tracing off, checks every answer itself, and (with --trace 1)
   replays the same ops layer by layer with spans, written as a Chrome
   trace to perfbench/out/<workload>.trace.json.  It prints every
   metric by name with its unit, a host-speed diagnostic, a "detail"
   line for the determinism self-test, and last one JSON result line.
   A wrong answer exits 3 without a result.  See README.md. *)

open Common

let end_to_end =
  [ ("setup_s", "s");
    ("op_p50_ms", "ms");
    ("op_p90_ms", "ms");
    ("ops_per_s", "1/s");
    ("ok_share", "ratio");
    ("preserved_pct", "%");
    ("optimal_share", "ratio");
    ("flexibility_pct", "%");
    ("peak_rss_mb", "MB") ]

let per_layer =
  [ ("cnf.apply_ms", "ms");
    ("fast_ec.simplify_ms", "ms");
    ("fast_ec.merge_ms", "ms");
    ("fast_ec.cone_vars", "count");
    ("fast_ec.cone_clauses", "count");
    ("fast_ec.fallback_share", "ratio");
    ("backend.solve_ms", "ms");
    ("backend.solve_model_ms", "ms");
    ("backend.conflicts", "count");
    ("backend.decisions", "count");
    ("preserving.resolve_ms", "ms");
    ("preserving.probes", "count");
    ("preserving.clauses_encoded", "count");
    ("preserving.cores", "count");
    ("preserving.conflicts", "count");
    ("enabling.build_ms", "ms");
    ("encode.decode_ms", "ms");
    ("enabling.score_ms", "ms");
    ("cnfize.build_ms", "ms");
    ("cnfize.vars", "count");
    ("cnfize.clauses", "count");
    ("certify.check_ms", "ms");
    ("session.create_ms", "ms");
    ("session.edit_ms", "ms");
    ("session.solve_ms", "ms");
    ("wire.parse_ms", "ms");
    ("wire.render_ms", "ms");
    ("server.wait_ms", "ms");
    ("trace.overhead_pct", "%");
    ("trace.coverage_pct", "%") ]

let workloads =
  [ ("ec-round", W_round.run);
    ("serve", W_serve.run) ]

let usage () =
  prerr_endline
    "usage: ecbench.exe --workload ec-round|serve --seed N --seconds S \
     --trace 0|1 [--ops K] [--ecsat PATH]";
  exit 2

let () =
  let args = Hashtbl.create 8 in
  let rec parse = function
    | [] -> ()
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      Hashtbl.replace args (String.sub k 2 (String.length k - 2)) v;
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let get k = match Hashtbl.find_opt args k with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload = get "workload" in
  let run = match List.assoc_opt workload workloads with Some r -> r | None -> usage () in
  let seed = int "seed" and seconds = int "seconds" and trace = int "trace" <> 0 in
  let ops = Option.map int_of_string (Hashtbl.find_opt args "ops") in
  let ecsat =
    Option.value (Hashtbl.find_opt args "ecsat") ~default:"_build/default/bin/ecsat.exe"
  in
  if seconds < 1 then usage ();
  let host_before = host_loop_ms () in
  let r =
    match run ~seed ~seconds ~trace ~ops ~ecsat with
    | r -> r
    | exception Wrong_answer msg ->
      Printf.eprintf "ecbench: WRONG ANSWER (%s, seed %d): %s\n" workload seed msg;
      exit 3
  in
  let host_after = host_loop_ms () in
  if r.mismatches > 0 then
    Printf.eprintf "ecbench: %d executions answered differently from their op's first answer\n"
      r.mismatches;
  if trace then begin
    (try Unix.mkdir "perfbench/out" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    Spans.write_chrome (Printf.sprintf "perfbench/out/%s.trace.json" workload)
  end;
  let ms = Array.map (fun s -> 1000.0 *. s) r.latencies_s in
  let e2e =
    [ ("setup_s", r.setup_s);
      ("op_p50_ms", quantile ms 0.5);
      ("op_p90_ms", quantile ms 0.9);
      ("ops_per_s", float_of_int r.executions /. r.timed_wall_s);
      ("ok_share", float_of_int r.ok /. float_of_int r.attempted);
      ("preserved_pct", r.preserved_pct);
      ("optimal_share", r.optimal_share);
      ("flexibility_pct", r.flexibility_pct);
      ("peak_rss_mb", r.peak_rss_mb) ]
  in
  let layer name = Option.value (List.assoc_opt name r.layers) ~default:0.0 in
  let show (name, unit) v = Printf.printf "%-28s %14.4f %s\n" name v unit in
  Printf.printf "workload %s  seed %d  ops %d  executions %d  trace %d\n" workload seed
    r.attempted r.executions (if trace then 1 else 0);
  List.iter (fun (name, unit) -> show (name, unit) (List.assoc name e2e)) end_to_end;
  if trace then List.iter (fun (name, unit) -> show (name, unit) (layer name)) per_layer;
  show ("host_loop_ms (diagnostic)", "ms") (median [| host_before; host_after |]);
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  let obj fields =
    "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields) ^ "}"
  in
  (* Everything the determinism self-test compares, plus diagnostics. *)
  print_endline
    ("detail "
    ^ obj
        ([ ("workload", Printf.sprintf "%S" workload);
           ("seed", string_of_int seed);
           ("ops", string_of_int r.attempted);
           ("executions", string_of_int r.executions);
           ("digest", Printf.sprintf "%S" r.digest);
           ("host_loop_ms", num (median [| host_before; host_after |]));
           ("mismatches", string_of_int r.mismatches) ]
        @ List.map (fun (k, v) -> (k, num v)) e2e
        @ List.map (fun (k, v) -> (k, num v)) r.layers));
  let metrics =
    List.map
      (fun (name, unit) ->
        let v = if trace then layer name else List.assoc name e2e in
        (name, obj [ ("value", num v); ("unit", Printf.sprintf "%S" unit) ]))
      (if trace then per_layer else end_to_end)
  in
  print_endline
    (obj
       [ ("correct", "true");
         ("attempted", string_of_int r.attempted);
         ("failed", string_of_int (r.attempted - r.ok));
         ("metrics", obj metrics) ])
