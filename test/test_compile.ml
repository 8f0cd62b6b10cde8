(* Differential suite for the compiled validation plans: the compiled
   schema executor (over values and over trees) against the structural
   interpreter, and the Theorem 1 compilation of JSL against [Jsl.holds]
   — on the Table 1 keyword cases, the property-heavy catalog, random
   [gen_formula]-derived schemas, the $ref-sharing family, and under
   fuel/depth budgets. *)

module Value = Jsont.Value
module Tree = Jsont.Tree
module Jsl = Jlogic.Jsl
module Prng = Jworkload.Prng
module Catalog = Jworkload.Catalog
module Validate = Jschema.Validate

let parse_doc = Jsont.Parser.parse_exn ~mode:`Lenient
let parse_schema = Jschema.Parse.of_string_exn

(* every engine we have for the schema-validation relation *)
let verdicts schema doc =
  let plan = Validate.Plan.compile schema in
  let interpreted = Validate.validates schema doc in
  let prepared = Validate.prepare schema doc in
  let compiled = Validate.Plan.run plan doc in
  let on_tree = Validate.Plan.run_tree plan (Tree.of_value doc) in
  let from_string =
    Validate.Plan.run_tree plan (Tree.of_string_exn (Value.to_string doc))
  in
  (interpreted, [ prepared; compiled; on_tree; from_string ])

let check_agree ~what schema doc expected =
  let interpreted, rest = verdicts schema doc in
  (match expected with
  | Some e ->
    if interpreted <> e then
      Alcotest.failf "%s: interpreter says %b, expected %b" what interpreted e
  | None -> ());
  List.iteri
    (fun i v ->
      if v <> interpreted then
        Alcotest.failf "%s: engine %d says %b, interpreter %b" what i v
          interpreted)
    rest

(* ---- Table 1 keyword cases (incl. the JSL translation) ------------------- *)

let test_keyword_cases () =
  List.iter
    (fun (name, schema_text, docs) ->
      let schema = parse_schema schema_text in
      let jsl = Jschema.To_jsl.document schema in
      List.iter
        (fun (doc_text, expected) ->
          let doc = parse_doc doc_text in
          check_agree
            ~what:(Printf.sprintf "%s on %s" name doc_text)
            schema doc (Some expected);
          let via_jsl = Jlogic.Jsl_rec.validates doc jsl in
          if via_jsl <> expected then
            Alcotest.failf "%s on %s: via JSL %b, expected %b" name doc_text
              via_jsl expected)
        docs)
    Catalog.keyword_cases

(* ---- the property-heavy catalog ------------------------------------------ *)

let test_catalog_differential () =
  let schema = parse_schema Catalog.catalog_schema in
  let plan = Validate.Plan.compile schema in
  let check = Validate.prepare schema in
  let rng = Prng.create 0xCA7A106 in
  let seen_true = ref false and seen_false = ref false in
  for case = 0 to 299 do
    let doc = Catalog.catalog_doc rng in
    let interpreted = check doc in
    if interpreted then seen_true := true else seen_false := true;
    let compiled = Validate.Plan.run plan doc in
    let on_tree =
      Validate.Plan.run_tree plan (Tree.of_string_exn (Value.to_string doc))
    in
    if compiled <> interpreted || on_tree <> interpreted then
      Alcotest.failf "catalog case %d: %b / %b / %b on %s" case interpreted
        compiled on_tree (Value.to_string doc)
  done;
  Alcotest.(check bool) "both verdicts exercised" true (!seen_true && !seen_false)

(* ---- random schemas from random JSL formulas ----------------------------- *)

let test_fuzz_differential () =
  let cfg =
    { Jworkload.Gen_formula.default with
      size = 18;
      allow_nondet = true;
      allow_negation = true }
  in
  for case = 0 to 999 do
    let rng = Prng.create (0xC0DE + case) in
    let f = Jworkload.Gen_formula.jsl rng cfg in
    let schema = Jschema.Schema.plain (Jschema.Of_jsl.schema f) in
    let doc = Jworkload.Gen_json.sized rng 40 in
    (match Jschema.Schema.well_formed schema with
    | Error m -> Alcotest.failf "case %d: generated schema ill-formed: %s" case m
    | Ok () -> ());
    check_agree
      ~what:(Printf.sprintf "fuzz case %d (doc %s)" case (Value.to_string doc))
      schema doc None;
    (* the compiled schema decides the formula it was translated from,
       and so does the formula lowered straight into a plan, over trees
       and over the token stream *)
    let tree = Tree.of_value doc in
    let by_jsl = Jsl.holds (Jsl.context tree) Tree.root f in
    let direct = Validate.Plan.of_jsl f in
    List.iter
      (fun (engine, by_plan) ->
        if by_plan <> by_jsl then
          Alcotest.failf "case %d: %s %b but Jsl.holds %b for %s" case engine
            by_plan by_jsl (Jsl.to_string f))
      [ ("run_tree (schema)", Validate.Plan.run_tree (Validate.Plan.compile schema) tree);
        ("run_tree (of_jsl)", Validate.Plan.run_tree direct tree);
        ("run_stream (of_jsl)", Validate.Plan.run_stream direct (Value.to_string doc)) ]
  done

(* [~(A)] compiles to a one-value [enum], decided by subtree hash: the
   plan does not grow with the constant (expanding it into per-index
   equalities made the plan quadratic in the array's length) *)
let test_eq_doc_plan_size () =
  let nodes n =
    let arr = Value.Arr (List.init n (fun i -> Value.Num i)) in
    Obs.Metrics.set_enabled true;
    Obs.Metrics.reset ();
    let plan =
      Validate.Plan.of_jsl (Jsl.dia_key "tags" (Jsl.Test (Jsl.Eq_doc arr)))
    in
    let count = Obs.Metrics.counter_value "validate.plan.nodes" in
    Obs.Metrics.set_enabled false;
    let doc k = Value.Obj [ ("tags", Value.Arr (List.init k (fun i -> Value.Num i))) ] in
    Alcotest.(check bool) "equal array passes" true
      (Validate.Plan.run plan (doc n));
    Alcotest.(check bool) "shorter array fails" false
      (Validate.Plan.run plan (doc (n - 1)));
    count
  in
  let small = nodes 3 in
  Alcotest.(check int) "1000-element constant, same plan size" small (nodes 1000)

(* a position range or a child count is one plan-node field: neither
   the plan nor its compilation grows with the index or count (the
   Table 1 translation needs an [items] list as long as the index) *)
let test_index_plan_size () =
  let at_a i = Jsl.dia_key "a" (Jsl.dia_idx i (Jsl.Test (Jsl.Eq_doc (Value.Num 1)))) in
  let forms =
    [ ("dia[i] under a key", at_a);
      ("MinCh(i)", fun i -> Jsl.Test (Jsl.Min_ch i));
      ("MaxCh(i)", fun i -> Jsl.Test (Jsl.Max_ch i));
      ("box[i:2i]", fun i -> Jsl.Box_range (i, Some (2 * i), Jsl.Test Jsl.Is_int)) ]
  in
  List.iter
    (fun (what, form) ->
      let compile i =
        let f = form i in
        let before = Gc.minor_words () in
        let plan = Validate.Plan.of_jsl f in
        (Validate.Plan.node_count plan, Gc.minor_words () -. before)
      in
      let nodes, words = compile 3 and big_nodes, big_words = compile 1_000_000 in
      Alcotest.(check int) (what ^ ": same plan size at i = 10^6") nodes big_nodes;
      if big_words > words +. 1000. then
        Alcotest.failf "%s: compiling at i = 10^6 allocates %.0f words, at i = 3 %.0f"
          what big_words words)
    forms;
  let decide f text =
    let plan = Validate.Plan.of_jsl f in
    let on_tree = Validate.Plan.run_tree plan (Tree.of_string_exn text) in
    Alcotest.(check bool) ("stream agrees on " ^ text) on_tree
      (Validate.Plan.run_stream plan text);
    on_tree
  in
  let doc = {|{"a":[0,0,0,1]}|} in
  Alcotest.(check bool) "a[3] = 1" true (decide (at_a 3) doc);
  Alcotest.(check bool) "a[2] = 1" false (decide (at_a 2) doc);
  Alcotest.(check bool) "no a[10^9]" false (decide (at_a 1_000_000_000) doc);
  Alcotest.(check bool) "MinCh(4) at a 4-array" true
    (decide (Jsl.Test (Jsl.Min_ch 4)) "[0,0,0,1]");
  Alcotest.(check bool) "MinCh(10^9)" false
    (decide (Jsl.Test (Jsl.Min_ch 1_000_000_000)) "[0,0,0,1]");
  Alcotest.(check bool) "MaxCh(3) at a 4-array" false
    (decide (Jsl.Test (Jsl.Max_ch 3)) "[0,0,0,1]");
  Alcotest.(check bool) "MaxCh(10^9)" true
    (decide (Jsl.Test (Jsl.Max_ch 1_000_000_000)) {|{"a":[0,0,0,1]}|})

(* ---- $ref sharing and reference cycles ----------------------------------- *)

let test_ref_sharing () =
  let schema = parse_schema (Catalog.ref_sharing_schema 8) in
  check_agree ~what:"ref-sharing k=8" schema Catalog.ref_sharing_doc
    (Some false);
  (* the compiled plan interns each definition once: node count is
     linear in k, not exponential *)
  let plan = Validate.Plan.compile schema in
  Alcotest.(check bool)
    "plan is linear in k" true
    (Validate.Plan.node_count plan <= 3 * 8 + 5)

let test_ref_cycle_regression () =
  (* a modal (well-formed) $ref cycle: arbitrarily nested objects of
     objects; compile must terminate and agree with the interpreter *)
  let schema =
    parse_schema
      {|{"definitions":{"t":{"type":"object",
          "additionalProperties":{"$ref":"#/definitions/t"}}},
         "$ref":"#/definitions/t"}|}
  in
  List.iter
    (fun (text, expected) ->
      check_agree ~what:("cyclic $ref on " ^ text) schema (parse_doc text)
        (Some expected))
    [ ("{}", true);
      ({|{"a":{},"b":{"c":{"d":{}}}}|}, true);
      ({|{"a":{"b":3}}|}, false);
      ("[]", false) ];
  (* linked list through properties *)
  let list_schema =
    parse_schema
      {|{"definitions":{"cell":{"anyOf":[
           {"enum":["nil"]},
           {"type":"object","required":["head","tail"],
            "properties":{"head":{"type":"number"},
                          "tail":{"$ref":"#/definitions/cell"}}}]}},
         "$ref":"#/definitions/cell"}|}
  in
  List.iter
    (fun (text, expected) ->
      check_agree ~what:("list cell on " ^ text) list_schema (parse_doc text)
        (Some expected))
    [ ({|"nil"|}, true);
      ({|{"head":1,"tail":{"head":2,"tail":"nil"}}|}, true);
      ({|{"head":1,"tail":{"head":"x","tail":"nil"}}|}, false) ]

let test_memo_hits () =
  (* sharing actually goes through the memo table *)
  Obs.Metrics.set_enabled true;
  Obs.Metrics.reset ();
  let schema = parse_schema (Catalog.ref_sharing_schema 10) in
  let plan = Validate.Plan.compile schema in
  let _ = Validate.Plan.run plan Catalog.ref_sharing_doc in
  let hits = Obs.Metrics.counter_value "validate.memo.hit" in
  Obs.Metrics.set_enabled false;
  Alcotest.(check bool) "memo hits recorded" true (hits >= 10)

(* ---- well-formedness satellites ------------------------------------------ *)

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_well_formed () =
  let reject text expect_frag =
    match Jschema.Parse.of_string text with
    | Error m ->
      Alcotest.(check bool)
        (Printf.sprintf "%s mentions %s (got %S)" text expect_frag m)
        true
        (contains_substring m expect_frag)
    | Ok _ -> Alcotest.failf "%s accepted" text
  in
  reject {|{"multipleOf":0}|} "multipleOf 0";
  reject {|{"properties":{"a":{"not":{"multipleOf":0}}}}|} "multipleOf 0";
  reject
    {|{"definitions":{"d":{"items":[{"multipleOf":0}]}},"$ref":"#/definitions/d"}|}
    "multipleOf 0";
  (* still fine: multipleOf 0 must not reject other multiples *)
  let s = parse_schema {|{"multipleOf":3}|} in
  Alcotest.(check bool) "multipleOf 3 ok" true (Validate.validates s (Value.Num 9));
  (* duplicate definitions are reported by name *)
  let dup =
    { Jschema.Schema.definitions = [ ("d", []); ("d", []) ]; root = [] }
  in
  (match Jschema.Schema.well_formed dup with
  | Error m ->
    Alcotest.(check bool) "dup mentions name" true (contains_substring m "\"d\"")
  | Ok () -> Alcotest.fail "duplicate definitions accepted");
  (* compile rejects ill-formed documents like the interpreter *)
  let zero = Jschema.Schema.plain [ Jschema.Schema.C_multiple_of 0 ] in
  (match Validate.Plan.compile zero with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "Plan.compile accepted multipleOf 0");
  match Validate.validates zero (Value.Num 1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "validates accepted multipleOf 0"

(* ---- budget agreement ---------------------------------------------------- *)

let test_budget_agreement () =
  let schema = parse_schema Catalog.catalog_schema in
  let plan = Validate.Plan.compile schema in
  let check = Validate.prepare schema in
  let rng = Prng.create 0xB06E7 in
  for case = 0 to 49 do
    let doc = Catalog.catalog_doc rng in
    for fuel = 1 to 40 do
      let run_engine f =
        match f (Obs.Budget.create ~fuel ()) with
        | b -> Some b
        | exception Obs.Budget.Exhausted _ -> None
      in
      let interp = run_engine (fun budget -> check ~budget doc) in
      let comp = run_engine (fun budget -> Validate.Plan.run ~budget plan doc) in
      match (interp, comp) with
      | Some a, Some b when a <> b ->
        Alcotest.failf "case %d fuel %d: verdicts differ (%b vs %b)" case fuel
          a b
      | _ -> ()
    done;
    (* with ample fuel both complete and agree *)
    let budget = Obs.Budget.create ~fuel:1_000_000 () in
    let a = check ~budget doc in
    let budget = Obs.Budget.create ~fuel:1_000_000 () in
    let b = Validate.Plan.run ~budget plan doc in
    if a <> b then Alcotest.failf "case %d: ample-fuel verdicts differ" case
  done;
  (* a depth ceiling exhausts every engine on a deep document, through
     a schema that follows the document's spine *)
  let deep = Jworkload.Gen_json.deep_chain 200 in
  let hits_ceiling f =
    match f (Obs.Budget.create ~max_depth:50 ()) with
    | (_ : bool) -> false
    | exception Obs.Budget.Exhausted Obs.Budget.Depth -> true
  in
  let spine =
    parse_schema
      {|{"definitions":{"t":{"additionalProperties":{"$ref":"#/definitions/t"},
          "items":[{"$ref":"#/definitions/t"}],
          "additionalItems":{"$ref":"#/definitions/t"}}},
         "$ref":"#/definitions/t"}|}
  in
  let spine_plan = Validate.Plan.compile spine in
  Alcotest.(check bool)
    "interpreter hits depth ceiling" true
    (hits_ceiling (fun budget -> Validate.validates ~budget spine deep));
  Alcotest.(check bool)
    "compiled hits depth ceiling" true
    (hits_ceiling (fun budget -> Validate.Plan.run ~budget spine_plan deep))

let () =
  Alcotest.run "compile"
    [ ("keyword-cases", [ Alcotest.test_case "table1" `Quick test_keyword_cases ]);
      ("catalog",
       [ Alcotest.test_case "catalog differential" `Quick
           test_catalog_differential ]);
      ("differential",
       [ Alcotest.test_case "fuzz schema+jsl" `Quick test_fuzz_differential;
         Alcotest.test_case "~(A) plan size" `Quick test_eq_doc_plan_size;
         Alcotest.test_case "index/count plan size" `Quick test_index_plan_size ]);
      ("ref-sharing",
       [ Alcotest.test_case "asymptotic sharing" `Quick test_ref_sharing;
         Alcotest.test_case "cyclic $ref regression" `Quick
           test_ref_cycle_regression;
         Alcotest.test_case "memo hits" `Quick test_memo_hits ]);
      ("well-formed",
       [ Alcotest.test_case "multipleOf 0 / dup defs" `Quick test_well_formed ]);
      ("budget",
       [ Alcotest.test_case "fuel/depth agreement" `Quick test_budget_agreement ])
    ]
