(* Model building: Assignment.init/resize and the solver paths built on
   them (Cdcl models, session and MaxSAT restriction, Minimize,
   Preprocess reconstruction), checked against the per-variable
   copy-on-write loops they replaced, kept here verbatim as oracles,
   plus a deterministic allocation bound that a quadratic builder
   cannot meet. *)

let check = Alcotest.check

let qtest = QCheck_alcotest.to_alcotest

module F = Ec_cnf.Formula
module A = Ec_cnf.Assignment
module O = Ec_sat.Outcome
module P = Ec_sat.Preprocess

let assignment = Alcotest.testable (fun fmt a -> Format.pp_print_string fmt (A.to_string a)) A.equal

(* ---- oracles: the replaced implementations ---- *)

let old_recover_dc ?(order = Ec_sat.Minimize.Fewest_occurrences_first) f a =
  let n = Ec_cnf.Formula.num_vars f in
  let nclauses = Ec_cnf.Formula.num_clauses f in
  let sat_count = Array.make nclauses 0 in
  Ec_cnf.Formula.iteri
    (fun i c -> sat_count.(i) <- Ec_cnf.Assignment.clause_sat_count a c)
    f;
  let vars = List.filter (fun v -> v <= n) (Ec_cnf.Assignment.assigned_vars a) in
  let vars =
    match order with
    | Ec_sat.Minimize.Ascending_vars -> vars
    | Ec_sat.Minimize.Fewest_occurrences_first ->
      let occ v = List.length (Ec_cnf.Formula.var_occurrences f v) in
      List.stable_sort (fun v w -> Int.compare (occ v) (occ w)) vars
  in
  let current = ref a in
  let release v =
    let true_lit =
      match Ec_cnf.Assignment.value !current v with
      | Ec_cnf.Assignment.True -> Some v
      | Ec_cnf.Assignment.False -> Some (-v)
      | Ec_cnf.Assignment.Dc -> None
    in
    match true_lit with
    | None -> ()
    | Some l ->
      let supported = Ec_cnf.Formula.occurrences f l in
      if List.for_all (fun i -> sat_count.(i) >= 2) supported then begin
        List.iter (fun i -> sat_count.(i) <- sat_count.(i) - 1) supported;
        current := Ec_cnf.Assignment.set !current v Ec_cnf.Assignment.Dc
      end
  in
  List.iter release vars;
  !current

(* Maxsat's restriction of a session model to the hard formula. *)
let old_maxsat_restrict nvars a =
  let out = ref (Ec_cnf.Assignment.make nvars) in
  for v = 1 to min nvars (Ec_cnf.Assignment.num_vars a) do
    out := Ec_cnf.Assignment.set !out v (Ec_cnf.Assignment.value a v)
  done;
  !out

(* Cdcl.Session's restriction of the capacity-wide model. *)
let old_session_restrict logical_nvars full =
  let a = ref (Ec_cnf.Assignment.make logical_nvars) in
  for v = 1 to logical_nvars do
    a := Ec_cnf.Assignment.set !a v (Ec_cnf.Assignment.value full v)
  done;
  !a

let old_reconstruct (r : P.result) a =
  let n =
    List.fold_left
      (fun m -> function P.Fixed (v, _) -> max m v | P.Eliminated (v, _) -> max m v)
      (Ec_cnf.Assignment.num_vars a) r.P.steps
  in
  let a = ref (Ec_cnf.Assignment.extend a n) in
  List.iter
    (fun step ->
      match step with
      | P.Fixed (v, b) ->
        a :=
          Ec_cnf.Assignment.set !a v
            (if b then Ec_cnf.Assignment.True else Ec_cnf.Assignment.False)
      | P.Eliminated (v, saved) ->
        let satisfied_with value =
          let trial = Ec_cnf.Assignment.set !a v value in
          List.for_all
            (fun lits -> List.exists (Ec_cnf.Assignment.lit_true trial) lits)
            saved
        in
        let value =
          if satisfied_with Ec_cnf.Assignment.True then Ec_cnf.Assignment.True
          else Ec_cnf.Assignment.False
        in
        a := Ec_cnf.Assignment.set !a v value)
    r.P.steps;
  !a

(* ---- generators ---- *)

let value_gen = QCheck.Gen.oneofl [ A.True; A.False; A.Dc ]

let values_gen max_n = QCheck.Gen.(list_size (int_range 0 max_n) value_gen)

let of_values vs = List.fold_left (fun (a, v) x -> (A.set a v x, v + 1)) (A.make (List.length vs), 1) vs |> fst

let print_values vs = String.concat "" (List.map A.value_to_string vs)

let formula_gen ~max_vars ~max_clauses =
  QCheck.Gen.(
    let* n = int_range 1 max_vars in
    let* m = int_range 0 max_clauses in
    let clause =
      let* w = int_range 1 (min 3 n) in
      let* lits = list_repeat w (int_range 1 n) in
      let* signs = list_repeat w bool in
      return (List.map2 (fun v s -> if s then v else -v) lits signs)
    in
    let* clauses = list_repeat m clause in
    return (F.of_lists ~num_vars:n clauses))

(* A formula, a random partial assignment covering at least its
   variables, and a target width, narrower or wider. *)
let case_gen =
  QCheck.Gen.(
    let* f = formula_gen ~max_vars:12 ~max_clauses:30 in
    let* width = int_range (F.num_vars f) (F.num_vars f + 3) in
    let* vs = list_repeat width value_gen in
    let* target = int_range 0 (F.num_vars f + 3) in
    return (f, vs, target))

let print_case (f, vs, target) =
  Printf.sprintf "%s\nassignment %s\ntarget %d" (F.to_string f) (print_values vs) target

let arb_case = QCheck.make ~print:print_case case_gen

(* ---- Assignment.init / resize ---- *)

let prop_init_equals_set_fold =
  QCheck.Test.make ~name:"init n f = folding set over make n" ~count:300
    (QCheck.make ~print:print_values (values_gen 40))
    (fun vs ->
      let arr = Array.of_list vs in
      A.equal (A.init (Array.length arr) (fun v -> arr.(v - 1))) (of_values vs))

let test_init_bounds () =
  Alcotest.check_raises "negative n" (Invalid_argument "Assignment.init") (fun () ->
      ignore (A.init (-1) (fun _ -> A.True)));
  check Alcotest.int "empty" 0 (A.num_vars (A.init 0 (fun _ -> Alcotest.fail "f called")));
  let seen = ref [] in
  let a = A.init 5 (fun v -> seen := v :: !seen; A.True) in
  check Alcotest.(list int) "f called on 1..n in order" [ 1; 2; 3; 4; 5 ] (List.rev !seen);
  check Alcotest.int "width" 5 (A.num_vars a);
  check Alcotest.(list int) "slot 0 is not a variable" [ 1; 2; 3; 4; 5 ] (A.assigned_vars a);
  check Alcotest.(list int) "to_list skips slot 0" [ 1; 2; 3; 4; 5 ] (List.map fst (A.to_list a));
  check Alcotest.int "no DC counted" 0 (A.dc_count a);
  (match A.value a 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "slot 0 readable");
  check assignment "equal to of_list" (A.of_list 5 (List.init 5 (fun i -> (i + 1, true)))) a

let prop_resize_matches_restrictions =
  QCheck.Test.make ~name:"resize = old MaxSAT and session restriction loops" ~count:300 arb_case
    (fun (_, vs, target) ->
      let a = of_values vs in
      A.equal (A.resize a target) (old_maxsat_restrict target a)
      && (target > A.num_vars a || A.equal (A.resize a target) (old_session_restrict target a)))

(* ---- solver paths ---- *)

let prop_recover_dc_matches_oracle =
  QCheck.Test.make ~name:"recover_dc = old recover_dc (both orders, any input)" ~count:400 arb_case
    (fun (f, vs, _) ->
      let a = of_values vs in
      (* the input may also be a model, the case every solver path hits *)
      let model =
        match Ec_sat.Cdcl.solve_formula f with O.Sat m -> [ m ] | _ -> []
      in
      List.for_all
        (fun a ->
          List.for_all
            (fun order ->
              A.equal (Ec_sat.Minimize.recover_dc ~order f a) (old_recover_dc ~order f a))
            [ Ec_sat.Minimize.Ascending_vars; Ec_sat.Minimize.Fewest_occurrences_first ])
        (a :: model))

let prop_reconstruct_matches_oracle =
  QCheck.Test.make ~name:"Preprocess.reconstruct = old reconstruct" ~count:400 arb_case
    (fun (f, vs, _) ->
      match P.simplify f with
      | `Unsat -> true
      | `Simplified r ->
        let model =
          match Ec_sat.Cdcl.solve_formula r.P.formula with O.Sat m -> [ m ] | _ -> []
        in
        List.for_all
          (fun a -> A.equal (P.reconstruct r a) (old_reconstruct r a))
          (of_values vs :: model))

(* A session whose capacity outgrows its formula: the model must cover
   exactly the named variables, totally, and satisfy every clause. *)
let test_session_model_width () =
  let f = F.of_lists ~num_vars:3 [ [ 1; 2 ]; [ -1; 3 ] ] in
  let s = Ec_sat.Cdcl.Session.create f in
  Ec_sat.Cdcl.Session.add_clauses s
    [ Ec_cnf.Clause.make [ -3; 9 ]; Ec_cnf.Clause.make [ -9; -2 ] ];
  match Ec_sat.Cdcl.Session.solve s with
  | O.Sat a ->
    check Alcotest.int "width = named variables" (Ec_sat.Cdcl.Session.num_vars s) (A.num_vars a);
    check Alcotest.int "total" 0 (A.dc_count a);
    let all = F.of_lists ~num_vars:9 [ [ 1; 2 ]; [ -1; 3 ]; [ -3; 9 ]; [ -9; -2 ] ] in
    check Alcotest.bool "satisfies" true (A.satisfies a all)
  | _ -> Alcotest.fail "satisfiable"

(* ---- allocation ---- *)

(* Words allocated by [f] on this domain, counting each word once
   (a promoted word was already counted in the minor heap).  The minor
   heap is emptied first so that only [f]'s words can be promoted. *)
let allocated_words f =
  Gc.minor ();
  let minor0, promoted0, major0 = Gc.counters () in
  let r = f () in
  let minor1, promoted1, major1 = Gc.counters () in
  (r, minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))

(* A per-variable model copy makes these two calls allocate ~n words
   per variable (~20 000 here); with O(n) builders the solver's own
   data structures dominate, at about 170.  The bound leaves room for
   those to grow and still sits 20x below the quadratic figure. *)
let test_linear_allocation () =
  let n = 20_000 in
  let f = F.of_lists ~num_vars:n (List.init (n - 1) (fun i -> [ -(i + 1); i + 2 ])) in
  let bound = 1_000. in
  let a, words =
    allocated_words (fun () ->
        match (Ec_sat.Cdcl.solve_response f).Ec_sat.Cdcl.outcome with
        | O.Sat a -> Ec_sat.Minimize.recover_dc f a
        | _ -> Alcotest.fail "satisfiable")
  in
  check Alcotest.bool "still a model" true (A.satisfies a f);
  let per_var = words /. float_of_int n in
  if per_var > bound then
    Alcotest.failf "allocated %.0f words per variable (bound %.0f)" per_var bound

let tests =
  [ ( "cnf.model-build",
      [ qtest prop_init_equals_set_fold;
        Alcotest.test_case "init: bounds and slot 0" `Quick test_init_bounds;
        qtest prop_resize_matches_restrictions ] );
    ( "sat.model-build",
      [ qtest prop_recover_dc_matches_oracle;
        qtest prop_reconstruct_matches_oracle;
        Alcotest.test_case "session model width" `Quick test_session_model_width;
        Alcotest.test_case "solve + recover_dc allocate O(n)" `Quick test_linear_allocation ] ) ]
