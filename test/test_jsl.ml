(* Tests for JSL (Section 5.2), recursive JSL (Section 5.3) and the
   J-automaton membership checker. *)

open Jlogic
module Value = Jsont.Value
module Tree = Jsont.Tree

let parse_doc = Jsont.Parser.parse_exn
let validates s f = Jsl.validates (parse_doc s) f

let re = Rexp.Parse.parse_exn

(* ------------------------------------------------------------------ *)
(* Node tests                                                           *)
(* ------------------------------------------------------------------ *)

let test_node_tests () =
  let checks =
    [ (true, "{}", Jsl.Test Jsl.Is_obj);
      (false, "[]", Jsl.Test Jsl.Is_obj);
      (true, "[]", Jsl.Test Jsl.Is_arr);
      (true, {|"hi"|}, Jsl.Test Jsl.Is_str);
      (true, "7", Jsl.Test Jsl.Is_int);
      (false, "7", Jsl.Test Jsl.Is_str);
      (true, {|"0101"|}, Jsl.Test (Jsl.Pattern (re "(01)+")));
      (false, {|"010"|}, Jsl.Test (Jsl.Pattern (re "(01)+")));
      (false, "3", Jsl.Test (Jsl.Pattern (re ".*")));
      (* Min/Max inclusive; the §5.1 example: maximum 12 & multipleOf 4
         describes 0, 4, 8, 12 *)
      (true, "12", Jsl.And (Jsl.Test (Jsl.Max 12), Jsl.Test (Jsl.Mult_of 4)));
      (true, "0", Jsl.And (Jsl.Test (Jsl.Max 12), Jsl.Test (Jsl.Mult_of 4)));
      (false, "16", Jsl.And (Jsl.Test (Jsl.Max 12), Jsl.Test (Jsl.Mult_of 4)));
      (false, "6", Jsl.And (Jsl.Test (Jsl.Max 12), Jsl.Test (Jsl.Mult_of 4)));
      (true, "5", Jsl.Test (Jsl.Min 5));
      (false, "4", Jsl.Test (Jsl.Min 5));
      (true, "5", Jsl.Test (Jsl.Max 5));
      (true, {|{"a":1,"b":2}|}, Jsl.Test (Jsl.Min_ch 2));
      (false, {|{"a":1}|}, Jsl.Test (Jsl.Min_ch 2));
      (true, {|[1,2,3]|}, Jsl.Test (Jsl.Max_ch 3));
      (false, {|[1,2,3,4]|}, Jsl.Test (Jsl.Max_ch 3));
      (true, {|"atom"|}, Jsl.Test (Jsl.Max_ch 0));
      (true, {|[1,2,3]|}, Jsl.Test Jsl.Unique);
      (false, {|[1,2,1]|}, Jsl.Test Jsl.Unique);
      (false, {|{"a":1}|}, Jsl.Test Jsl.Unique);  (* Unique only on arrays *)
      (true, {|[{"a":1},{"a":2}]|}, Jsl.Test Jsl.Unique);
      (false, {|[{"a":1,"b":2},{"b":2,"a":1}]|}, Jsl.Test Jsl.Unique);
      (true, {|{"x":1}|}, Jsl.Test (Jsl.Eq_doc (parse_doc {|{"x":1}|})));
      (false, {|{"x":2}|}, Jsl.Test (Jsl.Eq_doc (parse_doc {|{"x":1}|}))) ]
  in
  List.iteri
    (fun i (expected, doc, formula) ->
      Alcotest.(check bool)
        (Printf.sprintf "case %d: %s on %s" i (Jsl.to_string formula) doc)
        expected (validates doc formula))
    checks

let test_modalities () =
  let doc = {|{"name":"Sue","a1":10,"a2":20,"arr":[1,"two",3]}|} in
  let checks =
    [ (true, Jsl.dia_key "name" (Jsl.Test Jsl.Is_str));
      (false, Jsl.dia_key "name" (Jsl.Test Jsl.Is_int));
      (false, Jsl.dia_key "missing" Jsl.True);
      (true, Jsl.box_key "missing" Jsl.ff);  (* vacuous *)
      (true, Jsl.Dia_keys (re "a[0-9]", Jsl.Test (Jsl.Min 15)));
      (false, Jsl.Dia_keys (re "a[0-9]", Jsl.Test (Jsl.Min 25)));
      (true, Jsl.Box_keys (re "a[0-9]", Jsl.Test Jsl.Is_int));
      (false, Jsl.Box_keys (re "a[0-9]", Jsl.Test (Jsl.Min 15)));
      (true, Jsl.dia_key "arr" (Jsl.dia_idx 1 (Jsl.Test Jsl.Is_str)));
      (true, Jsl.dia_key "arr" (Jsl.Box_range (0, Some 0, Jsl.Test Jsl.Is_int)));
      (true, Jsl.dia_key "arr" (Jsl.Dia_range (0, None, Jsl.Test Jsl.Is_str)));
      (false, Jsl.dia_key "arr" (Jsl.Box_range (0, None, Jsl.Test Jsl.Is_int)));
      (true, Jsl.dia_key "arr" (Jsl.Box_range (5, None, Jsl.ff)));  (* vacuous *)
      (* □ over all keys on an array node is vacuous: no O-children *)
      (true, Jsl.dia_key "arr" (Jsl.Box_keys (Rexp.Syntax.all, Jsl.ff)));
      (* ◇ ranges on object nodes never hold: no A-children *)
      (false, Jsl.Dia_range (0, None, Jsl.True)) ]
  in
  List.iteri
    (fun i (expected, formula) ->
      Alcotest.(check bool)
        (Printf.sprintf "case %d: %s" i (Jsl.to_string formula))
        expected (validates doc formula))
    checks

let test_fragments () =
  Alcotest.(check bool) "unique flag" true
    (Jsl.uses_unique (Jsl.Not (Jsl.dia_key "a" (Jsl.Test Jsl.Unique))));
  Alcotest.(check bool) "no unique" false
    (Jsl.uses_unique (Jsl.dia_key "a" Jsl.True));
  Alcotest.(check bool) "det" true
    (Jsl.is_deterministic (Jsl.dia_key "a" (Jsl.box_idx 2 Jsl.True)));
  Alcotest.(check bool) "nondet regex" false
    (Jsl.is_deterministic (Jsl.Dia_keys (re "a|b", Jsl.True)));
  Alcotest.(check bool) "nondet range" false
    (Jsl.is_deterministic (Jsl.Dia_range (0, None, Jsl.True)));
  Alcotest.(check int) "modal depth" 3
    (Jsl.modal_depth
       (Jsl.dia_key "a" (Jsl.Or (Jsl.box_idx 0 (Jsl.dia_key "b" Jsl.True), Jsl.True))));
  Alcotest.(check bool) "free vars" true
    (Jsl.free_vars (Jsl.And (Jsl.Var "x", Jsl.dia_key "k" (Jsl.Var "y"))) = [ "x"; "y" ])

(* ------------------------------------------------------------------ *)
(* Recursive JSL                                                        *)
(* ------------------------------------------------------------------ *)

(* Example 2 of the paper: all root-to-leaf paths have even length *)
let even_paths =
  Jsl_rec.make_exn
    ~defs:
      [ ("g1", Jsl.Box_keys (Rexp.Syntax.all, Jsl.Var "g2"));
        ( "g2",
          Jsl.And
            ( Jsl.Dia_keys (Rexp.Syntax.all, Jsl.True),
              Jsl.Box_keys (Rexp.Syntax.all, Jsl.Var "g1") ) ) ]
    ~base:(Jsl.Var "g1")

let test_example2 () =
  let ok = [ "{}"; {|{"a":{"b":{}}}|}; {|{"a":{"b":{}},"c":{"d":{}}}|};
             {|{"a":{"b":{"c":{"d":{}}}}}|} ] in
  let bad = [ {|{"a":{}}|}; {|{"a":{"b":{"c":{}}}}|}; {|{"a":{"b":{}},"c":{}}|} ] in
  List.iter
    (fun d ->
      Alcotest.(check bool) ("even: " ^ d) true
        (Jsl_rec.validates (parse_doc d) even_paths))
    ok;
  List.iter
    (fun d ->
      Alcotest.(check bool) ("odd: " ^ d) false
        (Jsl_rec.validates (parse_doc d) even_paths))
    bad

(* Example 5: complete binary trees via ¬Unique (children equal) *)
let complete_binary =
  Jsl_rec.make_exn
    ~defs:
      [ ( "g",
          Jsl.Or
            ( Jsl.Not (Jsl.Dia_range (0, Some 0, Jsl.True)),
              Jsl.conj
                [ Jsl.Test (Jsl.Min_ch 2);
                  Jsl.Test (Jsl.Max_ch 2);
                  Jsl.Not (Jsl.Test Jsl.Unique);
                  Jsl.Box_range (0, Some 1, Jsl.Var "g") ] ) ) ]
    ~base:(Jsl.And (Jsl.Test Jsl.Is_arr, Jsl.Var "g"))

let rec perfect n : Value.t =
  if n = 0 then Value.Arr [] else Value.Arr [ perfect (n - 1); perfect (n - 1) ]

let test_example5 () =
  for n = 0 to 4 do
    Alcotest.(check bool)
      (Printf.sprintf "perfect %d accepted" n)
      true
      (Jsl_rec.validates (perfect n) complete_binary)
  done;
  (* unbalanced: two children of different heights *)
  let lopsided = Value.Arr [ perfect 2; perfect 1 ] in
  Alcotest.(check bool) "lopsided rejected" false
    (Jsl_rec.validates lopsided complete_binary);
  let three = Value.Arr [ perfect 1; perfect 1; perfect 1 ] in
  Alcotest.(check bool) "ternary rejected" false
    (Jsl_rec.validates three complete_binary)

let test_well_formedness () =
  (* γ = ¬γ is ill-formed (the paper's paradigmatic example) *)
  (match Jsl_rec.make ~defs:[ ("g", Jsl.Not (Jsl.Var "g")) ] ~base:(Jsl.Var "g") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "γ = ¬γ must be rejected");
  (* cycles through modalities are fine (Example 3) *)
  (match
     Jsl_rec.make
       ~defs:[ ("g", Jsl.Box_keys (Rexp.Syntax.all, Jsl.Var "g")) ]
       ~base:(Jsl.Var "g")
   with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "modal self-reference rejected: %s" m);
  (* undefined symbol *)
  (match Jsl_rec.make ~defs:[] ~base:(Jsl.Var "nope") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "undefined symbol must be rejected");
  (* duplicate definition *)
  (match
     Jsl_rec.make
       ~defs:[ ("g", Jsl.True); ("g", Jsl.ff) ]
       ~base:(Jsl.Var "g")
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate definition must be rejected");
  (* indirect non-modal cycle *)
  match
    Jsl_rec.make
      ~defs:[ ("a", Jsl.Var "b"); ("b", Jsl.And (Jsl.Var "a", Jsl.True)) ]
      ~base:(Jsl.Var "a")
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "indirect cycle must be rejected"

let test_unfold_example4 () =
  (* Example 4: evaluating Example 2's expression by unfolding agrees
     with the bottom-up algorithm *)
  let docs =
    [ "{}"; {|{"a":{}}|}; {|{"a":{"b":{}}}|}; {|{"a":{"b":{"c":{}}}}|};
      {|{"a":{"b":{}},"c":{"d":{"e":{"f":{}}}}}|} ]
  in
  List.iter
    (fun d ->
      let v = parse_doc d in
      Alcotest.(check bool) ("unfold agrees on " ^ d)
        (Jsl_rec.validates v even_paths)
        (Jsl_rec.validates_by_unfolding v even_paths))
    docs

(* $x = ◇($x) ∧ □($x) over a 20-deep array: each level mentions $x
   twice, so an unfolding that copies the expansion at every occurrence
   builds ~2^21 formula nodes.  Shared per (variable, height), it stays
   linear in the height and must allocate under a small fixed bound. *)
let test_unfold_shares_expansions () =
  let x = Jsl.Var "x" in
  let delta =
    Jsl_rec.make_exn
      ~defs:
        [ ("x", Jsl.And (Jsl.Dia_range (0, None, x), Jsl.Box_range (0, None, x)))
        ]
      ~base:x
  in
  let rec nest k = if k = 0 then Value.Num 1 else Value.Arr [ nest (k - 1) ] in
  let doc = nest 20 in
  let before = Gc.minor_words () in
  let got = Jsl_rec.validates_by_unfolding doc delta in
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "agrees with bottom-up"
    (Jsl_rec.validates doc delta) got;
  if words > 200_000. then
    Alcotest.failf "unfolding allocated %.0f minor words (bound 200000)" words

let test_circuit_encoding () =
  (* (in0 ∧ ¬in1) ∨ in2 *)
  let c =
    { Hardness.gates =
        [| Hardness.G_input 0;
           Hardness.G_input 1;
           Hardness.G_input 2;
           Hardness.G_not 1;
           Hardness.G_and (0, 3);
           Hardness.G_or (4, 2) |];
      output = 5;
      n_inputs = 3 }
  in
  let delta = Hardness.circuit_to_jsl_rec c in
  for mask = 0 to 7 do
    let a = Array.init 3 (fun i -> mask land (1 lsl i) <> 0) in
    let doc = Hardness.circuit_doc a in
    Alcotest.(check bool)
      (Printf.sprintf "assignment %d" mask)
      (Hardness.circuit_eval c a)
      (Jsl_rec.validates doc delta)
  done;
  (* cyclic circuit rejected *)
  match
    Hardness.circuit_check
      { Hardness.gates = [| Hardness.G_and (0, 0) |]; output = 0; n_inputs = 1 }
  with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "self-referencing gate must be rejected"

(* ------------------------------------------------------------------ *)
(* J-automata                                                           *)
(* ------------------------------------------------------------------ *)

let gen_jsl_doc =
  let open QCheck.Gen in
  let gen st =
    let seed = int_range 0 1_000_000 |> fun g -> g st in
    let rng = Jworkload.Prng.create seed in
    let doc = Jworkload.Gen_json.sized rng 50 in
    let cfg =
      { Jworkload.Gen_formula.default with
        Jworkload.Gen_formula.allow_nondet = true;
        size = 10 }
    in
    let formula = Jworkload.Gen_formula.jsl rng cfg in
    (doc, formula)
  in
  QCheck.make ~print:(fun (d, f) -> Value.to_string d ^ " |= " ^ Jsl.to_string f) gen

let prop_automaton_agrees =
  QCheck.Test.make ~name:"automaton membership = JSL evaluation" ~count:300
    gen_jsl_doc (fun (doc, formula) ->
      let tree = Tree.of_value doc in
      Jautomaton.accepts (Jautomaton.of_jsl formula) tree
      = Jsl.validates doc formula)

let gen_jsl_rec_doc =
  let open QCheck.Gen in
  let gen st =
    let seed = int_range 0 1_000_000 |> fun g -> g st in
    let rng = Jworkload.Prng.create seed in
    let doc = Jworkload.Gen_json.sized rng 40 in
    let cfg =
      { Jworkload.Gen_formula.default with Jworkload.Gen_formula.size = 8 }
    in
    let delta = Jworkload.Gen_formula.jsl_rec rng cfg ~n_defs:3 in
    (doc, delta)
  in
  QCheck.make
    ~print:(fun (d, r) ->
      Value.to_string d ^ " |= " ^ Format.asprintf "%a" Jsl_rec.pp r)
    gen

let prop_rec_automaton_agrees =
  QCheck.Test.make ~name:"automaton = recursive JSL evaluation" ~count:200
    gen_jsl_rec_doc (fun (doc, delta) ->
      let tree = Tree.of_value doc in
      Jautomaton.accepts (Jautomaton.of_jsl_rec delta) tree
      = Jsl_rec.validates doc delta)

let prop_rec_unfold_agrees =
  QCheck.Test.make ~name:"bottom-up = unfolding semantics" ~count:150
    gen_jsl_rec_doc (fun (doc, delta) ->
      Jsl_rec.validates doc delta = Jsl_rec.validates_by_unfolding doc delta)

let prop_eval_memo_consistent =
  QCheck.Test.make ~name:"eval sets consistent with holds" ~count:200 gen_jsl_doc
    (fun (doc, formula) ->
      let ctx = Jsl.context (Tree.of_value doc) in
      let set = Jsl.eval ctx formula in
      Seq.for_all
        (fun n -> Bitset.mem set n = Jsl.holds ctx n formula)
        (Tree.nodes (Tree.of_value doc)))


let test_run_profile () =
  let doc = parse_doc {|{"a":1,"b":"s"}|} in
  let tree = Tree.of_value doc in
  let f = Jsl.dia_key "a" (Jsl.Test Jsl.Is_int) in
  let aut = Jautomaton.of_jsl f in
  let root_profile = Jautomaton.run_profile aut tree Tree.root in
  Alcotest.(check bool) "init state holds at the root" true
    (Bitset.mem root_profile (Jautomaton.init aut));
  (* the profile at the string leaf must not contain the init state *)
  let b = Option.get (Tree.lookup tree Tree.root "b") in
  Alcotest.(check bool) "init state fails at the leaf" false
    (Bitset.mem (Jautomaton.run_profile aut tree b) (Jautomaton.init aut));
  Alcotest.(check bool) "some states exist" true (Jautomaton.states aut > 0)

let prop_automaton_complement =
  (* alternating automata complement by negation: of_jsl(¬ϕ) accepts
     exactly the trees of_jsl(ϕ) rejects *)
  QCheck.Test.make ~name:"automaton complementation via ¬" ~count:200 gen_jsl_doc
    (fun (doc, formula) ->
      let tree = Tree.of_value doc in
      Jautomaton.accepts (Jautomaton.of_jsl (Jsl.Not formula)) tree
      = not (Jautomaton.accepts (Jautomaton.of_jsl formula) tree))

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_automaton_agrees;
      prop_automaton_complement;
      prop_rec_automaton_agrees;
      prop_rec_unfold_agrees;
      prop_eval_memo_consistent ]

let () =
  Alcotest.run "jsl"
    [ ("node tests", [ Alcotest.test_case "all" `Quick test_node_tests ]);
      ("modalities", [ Alcotest.test_case "all" `Quick test_modalities ]);
      ("fragments", [ Alcotest.test_case "classification" `Quick test_fragments ]);
      ("recursion",
       [ Alcotest.test_case "Example 2 (even paths)" `Quick test_example2;
         Alcotest.test_case "Example 5 (complete binary)" `Quick test_example5;
         Alcotest.test_case "well-formedness" `Quick test_well_formedness;
         Alcotest.test_case "Example 4 (unfolding)" `Quick test_unfold_example4;
         Alcotest.test_case "unfolding shares expansions" `Quick
           test_unfold_shares_expansions;
         Alcotest.test_case "circuits (Prop 9)" `Quick test_circuit_encoding ]);
      ("automata",
       [ Alcotest.test_case "run profiles" `Quick test_run_profile ]);
      ("properties", qcheck_tests) ]
