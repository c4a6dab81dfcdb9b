(* Shared pieces of the benchmark: the clock, statistics, seeds, the
   benchmark's own answer checker (independent of the program's
   Formula/Change/Certify code), peak-RSS probing, the host-speed loop
   and the report every workload returns. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

(* ---- statistics --------------------------------------------------- *)

(* Linear-interpolation quantile (numpy's default) of an unsorted
   sample. *)
let quantile xs q =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float (Float.floor pos) in
    if i + 1 >= n then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

let mean xs =
  let n = Array.length xs in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

(* A workload's set-up, timed [setup_up_front] times up front (the
   last result is the one used) and [setup_spread] more times at points
   spread evenly over the timed phase ([again]), so
   that its median spans the run's host-speed drift as the ops do. *)
type 'a setup = {
  result : 'a;
  again : unit -> unit;
  median_s : unit -> float;
}

let setup_up_front = 5
let setup_spread = 25

let setup f =
  let samples = ref [] in
  let once () =
    let x, dt = time f in
    samples := dt :: !samples;
    x
  in
  let result = ref (once ()) in
  for _ = 2 to setup_up_front do
    result := once ()
  done;
  { result = !result;
    again = (fun () -> ignore (once ()));
    median_s = (fun () -> median (Array.of_list !samples)) }

(* The work-only allowance of every in-process op (and of set-up and
   Table-3 vetting): conflicts, never wall-clock, so an op's answer
   cannot depend on host speed.  No op comes near it. *)
let op_budget () = Ec_util.Budget.create ~conflicts:200_000 ()

(* ---- the timed phase ----------------------------------------------- *)

(* One in-process EC entry point as a workload drives it, over ops
   0 .. n-1 whose inputs are generated before timing.  [call i] makes
   op [i]'s program call; the closure it returns files the answer away,
   outside the timed interval.  [replay i] re-runs op [i] layer by layer
   under spans (traced run).  [check ()] checks every answer once the
   timed phase is over. *)
type part = {
  call : int -> unit -> unit;
  replay : int -> unit;
  check : unit -> part_result;
}

and part_result = {
  checked : bool array;             (** per op: decisive and checked *)
  optimal : bool array;             (** per op: proven optimal for its objective *)
  preserved : float option array;   (** per op: agreement with the model it replaces *)
  flexibility : float option array; (** per op: [Enabling.flexibility_score] *)
  answers_text : string;            (** every first answer, canonical, in op order *)
  counts : (string * float) list;   (** traced run: per-op work counts *)
  mismatched : int;
      (** later executions, or the traced replay, that answered
          differently from the op's first answer *)
}

(* The answers of one part: each op's first answer, and every later
   execution that answered differently (checked like the first). *)
type 'a answers = {
  first : 'a option array;
  mutable differing : (int * 'a) list;
}

let answers n = { first = Array.make n None; differing = [] }

let record a i x =
  match a.first.(i) with
  | None -> a.first.(i) <- Some x
  | Some y -> if x <> y then a.differing <- (i, x) :: a.differing

let first a i = Option.get a.first.(i)

(* How many replayed ops (traced run) answered differently from their
   first answer under [proj]. *)
let replay_differ proj replayed a =
  let d = ref 0 in
  Array.iteri
    (fun i r -> match r with Some r when r <> proj (first a i) -> incr d | _ -> ())
    replayed;
  !d

(* Every workload runs [distinct_ops] distinct ops, so p90 has ten
   samples beyond it.  The op list is fixed by the seed and the pass
   count by the arguments, never by the clock, so answers and counts
   are the same in every run. *)
let distinct_ops = 100

(* Passes of a run: one in the traced run (each op is replayed beside
   its untraced execution); otherwise enough to fill [seconds] at the
   workload's nominal [rate] (ops/s on the sizing host), and at least
   [min], so that the latency percentiles pool several executions of
   every op. *)
let passes ~trace ~seconds ~rate ~min =
  if trace then 1
  else
    max min
      (int_of_float (Float.ceil (float_of_int seconds *. rate /. float_of_int distinct_ops)))

(* Peak resident set (VmHWM) of a process in MB, read from its
   /proc/<pid>/status; [None] where /proc is unavailable. *)
let peak_rss_mb pid =
  match open_in (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> None
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> None
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
              Some (float_of_int kb /. 1024.0))
        else scan ()
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan

(* ---- seeds -------------------------------------------------------- *)

(* One stream per (seed, purpose): the same seed always yields the same
   inputs, and distinct purposes never share draws. *)
let rng ~seed purpose =
  Ec_util.Rng.create ((seed * 1_000_003) + (Hashtbl.hash purpose land 0xFFFFF))

(* ---- the benchmark's own CNF copy and checker ---------------------- *)

(* A formula as DIMACS clause arrays.  Change scripts are replayed on
   this copy with the semantics documented in [Ec_cnf.Change], so every
   model is checked against a formula the program did not build. *)
type cnf = {
  nvars : int;
  clauses : int array array;
}

let cnf_of_formula f =
  { nvars = Ec_cnf.Formula.num_vars f;
    clauses =
      Array.map (fun c -> Array.copy (Ec_cnf.Clause.lits c)) (Ec_cnf.Formula.clauses f) }

let eliminate cnf v =
  let drop c =
    if Array.exists (fun l -> abs l = v) c then
      Array.of_list (List.filter (fun l -> abs l <> v) (Array.to_list c))
    else c
  in
  { cnf with clauses = Array.map drop cnf.clauses }

let add_clauses cnf cs =
  let nvars =
    List.fold_left (fun m c -> Array.fold_left (fun m l -> max m (abs l)) m c) cnf.nvars cs
  in
  { nvars; clauses = Array.append cnf.clauses (Array.of_list cs) }

let apply_change cnf = function
  | Ec_cnf.Change.Add_clause c -> add_clauses cnf [ Array.copy (Ec_cnf.Clause.lits c) ]
  | Ec_cnf.Change.Remove_clause i ->
    let n = Array.length cnf.clauses in
    if i < 0 || i >= n then failwith "script removes a clause out of range";
    { cnf with
      clauses = Array.init (n - 1) (fun j -> cnf.clauses.(if j < i then j else j + 1)) }
  | Ec_cnf.Change.Add_var -> { cnf with nvars = cnf.nvars + 1 }
  | Ec_cnf.Change.Eliminate_var v -> eliminate cnf v

let apply_script cnf script = List.fold_left apply_change cnf script

(* A model as signed values: [v.(i)] is 1 (true), -1 (false) or 0
   (don't care) for variable [i], index 0 unused. *)
let values_of_assignment a =
  let n = Ec_cnf.Assignment.num_vars a in
  Array.init (n + 1) (fun v ->
      if v = 0 then 0
      else
        match Ec_cnf.Assignment.value a v with
        | Ec_cnf.Assignment.True -> 1
        | Ec_cnf.Assignment.False -> -1
        | Ec_cnf.Assignment.Dc -> 0)

let value vals v = if v < Array.length vals then vals.(v) else 0

(* The program's representations of the benchmark's copies, for the
   quality measures computed by program code ([flexibility_score]). *)
let formula_of_cnf cnf =
  Ec_cnf.Formula.of_lists ~num_vars:cnf.nvars (Array.to_list (Array.map Array.to_list cnf.clauses))

let assignment_of_values vals =
  let n = Array.length vals - 1 in
  Ec_cnf.Assignment.of_list n
    (List.filter_map
       (fun v -> if vals.(v) = 0 then None else Some (v, vals.(v) > 0))
       (List.init n (fun i -> i + 1)))

let lit_true vals l = value vals (abs l) = if l > 0 then 1 else -1

(* [Ok ()] iff every clause has a true literal under [vals]. *)
let check_model cnf vals =
  let bad = ref None in
  Array.iteri
    (fun i c ->
      if !bad = None && not (Array.exists (lit_true vals) c) then bad := Some i)
    cnf.clauses;
  match !bad with
  | None -> Ok ()
  | Some i -> Error (Printf.sprintf "clause %d is falsified" i)

(* Share of variables [1..n] whose value (don't-care included) is the
   same in both models; values past a model's range are don't-care. *)
let agreement ~n old_vals new_vals =
  if n = 0 then 1.0
  else begin
    let same = ref 0 in
    for v = 1 to n do
      if value old_vals v = value new_vals v then incr same
    done;
    float_of_int !same /. float_of_int n
  end

(* Canonical text of a model, for the answers digest. *)
let model_text vals =
  let b = Buffer.create (4 * Array.length vals) in
  Array.iteri
    (fun v x ->
      if v > 0 && x <> 0 then begin
        Buffer.add_string b (string_of_int (v * x));
        Buffer.add_char b ' '
      end)
    vals;
  Buffer.contents b

(* ---- host speed ---------------------------------------------------- *)

(* A fixed CPU loop owned by the benchmark (never program code): an
   xorshift ALU chain plus a dependent walk around a 4 MiB single-cycle
   permutation (Sattolo's shuffle).
   Its time tracks host speed, so a run's numbers can be read against
   the speed of the host at that moment.  Returns milliseconds.  The
   permutation is built afresh by every call and dropped after it, so
   the program's major GC never has to scan it during the timed ops. *)
let host_loop_ms () =
  let n = 1 lsl 19 in
  let perm = Array.init n (fun i -> i) in
  let r = Ec_util.Rng.create 7 in
  for i = n - 1 downto 1 do
    let j = Ec_util.Rng.int r i in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  let t0 = now () in
  let x = ref 0x2545F491 in
  for _ = 1 to 20_000_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17)
  done;
  let j = ref 0 in
  for _ = 1 to 4_000_000 do
    j := perm.(!j)
  done;
  ignore (Sys.opaque_identity (!x + !j));
  (now () -. t0) *. 1000.0

(* ---- what a workload reports ------------------------------------- *)

type report = {
  setup_s : float;
  latencies_s : float array;  (** every untraced op execution *)
  executions : int;           (** untraced op executions, all passes *)
  timed_wall_s : float;       (** the whole untraced timed phase *)
  attempted : int;            (** distinct ops *)
  ok : int;                   (** distinct ops decisive and checked *)
  preserved_pct : float;
  optimal_share : float;
  flexibility_pct : float;
  peak_rss_mb : float;
  digest : string;            (** MD5 of every answer, in op order *)
  layers : (string * float) list;
      (** traced run only: per-op layer self-times and counts *)
  mismatches : int;
      (** executions whose answer differs from the op's first one: a
          later pass (checked like the first), or (traced run) the
          layer-by-layer replay *)
}

(* A wrong answer aborts the run: the benchmark prints no result. *)
exception Wrong_answer of string

let wrong fmt = Printf.ksprintf (fun s -> raise (Wrong_answer s)) fmt
