(* Tests for the Theorem 1 / 2 / 3 translations. *)

open Jlogic
module Value = Jsont.Value

let parse_doc = Jsont.Parser.parse_exn

(* ------------------------------------------------------------------ *)
(* Theorem 2: JSL ⇄ JNL                                                 *)
(* ------------------------------------------------------------------ *)

let gen_thm2 =
  let open QCheck.Gen in
  let gen st =
    let seed = int_range 0 1_000_000 |> fun g -> g st in
    let rng = Jworkload.Prng.create seed in
    let doc = Jworkload.Gen_json.sized rng 50 in
    let cfg =
      { Jworkload.Gen_formula.default with
        Jworkload.Gen_formula.allow_nondet = true;
        size = 9 }
    in
    let formula = Jworkload.Gen_formula.jsl_thm2 rng cfg in
    (doc, formula)
  in
  QCheck.make
    ~print:(fun (d, f) -> Value.to_string d ^ " |= " ^ Jsl.to_string f)
    gen

let prop_jsl_to_jnl =
  QCheck.Test.make ~name:"JSL→JNL preserves node semantics" ~count:300 gen_thm2
    (fun (doc, jsl) ->
      match Translate.jsl_to_jnl jsl with
      | Error _ -> QCheck.assume_fail ()
      | Ok jnl ->
        let tree = Jsont.Tree.of_value doc in
        let jsl_ctx = Jsl.context tree in
        let jnl_ctx = Jnl_eval.context tree in
        Seq.for_all
          (fun n -> Jsl.holds jsl_ctx n jsl = Jnl_eval.check_at jnl_ctx n jnl)
          (Jsont.Tree.nodes tree))

let prop_jnl_roundtrip =
  QCheck.Test.make ~name:"JSL→JNL→JSL preserves semantics" ~count:200 gen_thm2
    (fun (doc, jsl) ->
      match Translate.jsl_to_jnl jsl with
      | Error _ -> QCheck.assume_fail ()
      | Ok jnl -> (
        match Translate.jnl_to_jsl jnl with
        | Error _ -> QCheck.assume_fail ()
        | Ok jsl' -> Jsl.validates doc jsl = Jsl.validates doc jsl'))

let gen_jnl_for_thm2 =
  let open QCheck.Gen in
  let gen st =
    let seed = int_range 0 1_000_000 |> fun g -> g st in
    let rng = Jworkload.Prng.create seed in
    let doc = Jworkload.Gen_json.sized rng 50 in
    let cfg =
      { Jworkload.Gen_formula.default with
        Jworkload.Gen_formula.allow_nondet = true;
        size = 8 }
    in
    let formula = Jworkload.Gen_formula.jnl rng cfg in
    (doc, formula)
  in
  QCheck.make
    ~print:(fun (d, f) -> Value.to_string d ^ " |= " ^ Jnl.to_string f)
    gen

let prop_jnl_to_jsl =
  QCheck.Test.make ~name:"JNL→JSL preserves node semantics" ~count:300
    gen_jnl_for_thm2 (fun (doc, jnl) ->
      match Translate.jnl_to_jsl jnl with
      | Error _ -> QCheck.assume_fail () (* negative indices etc. *)
      | Ok jsl ->
        let tree = Jsont.Tree.of_value doc in
        let jsl_ctx = Jsl.context tree in
        let jnl_ctx = Jnl_eval.context tree in
        Seq.for_all
          (fun n -> Jsl.holds jsl_ctx n jsl = Jnl_eval.check_at jnl_ctx n jnl)
          (Jsont.Tree.nodes tree))

let test_out_of_scope () =
  (match Translate.jnl_to_jsl (Jnl.Eq_paths (Jnl.Key "a", Jnl.Key "b")) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "EQ(α,β) must be rejected");
  (match Translate.jnl_to_jsl (Jnl.Exists (Jnl.Star (Jnl.Key "a"))) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "Star must be rejected");
  (match Translate.jnl_to_jsl (Jnl.Exists (Jnl.Idx (-1))) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "negative index must be rejected");
  (match Translate.jsl_to_jnl (Jsl.Test Jsl.Unique) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "Unique must be rejected");
  match Translate.jsl_to_jnl (Jsl.Var "g") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "Var must be rejected"

let test_blowup_family () =
  (* the JNL→JSL direction blows up exponentially on Alt chains *)
  let sizes =
    List.map
      (fun n ->
        let f = Translate.alt_chain n in
        match Translate.jnl_to_jsl f with
        | Ok jsl -> Jsl.size jsl
        | Error m -> Alcotest.failf "alt_chain %d: %s" n m)
      [ 2; 4; 6; 8 ]
  in
  (match sizes with
  | [ s2; s4; s6; s8 ] ->
    Alcotest.(check bool) "geometric growth" true
      (s4 > 2 * s2 && s6 > 2 * s4 && s8 > 2 * s6);
    (* and the other direction stays linear *)
    let lin =
      List.map
        (fun n ->
          let f = Translate.alt_chain n in
          match Translate.jnl_to_jsl f with
          | Ok jsl -> (
            match Translate.jsl_to_jnl jsl with
            | Ok jnl -> float_of_int (Jnl.size jnl) /. float_of_int (Jsl.size jsl)
            | Error m -> Alcotest.failf "back-translation failed: %s" m)
          | Error _ -> assert false)
        [ 4; 8 ]
    in
    List.iter
      (fun ratio ->
        Alcotest.(check bool) "JSL→JNL is linear in its input" true (ratio < 3.0))
      lin
  | _ -> assert false)

(* ------------------------------------------------------------------ *)
(* Theorem 1 and 3: JSON Schema ⇄ JSL                                   *)
(* ------------------------------------------------------------------ *)

let gen_schema_doc =
  let open QCheck.Gen in
  let gen st =
    let seed = int_range 0 1_000_000 |> fun g -> g st in
    let rng = Jworkload.Prng.create seed in
    let doc = Jworkload.Gen_json.sized rng 50 in
    let cfg =
      { Jworkload.Gen_formula.default with
        Jworkload.Gen_formula.allow_nondet = true;
        size = 9 }
    in
    let formula = Jworkload.Gen_formula.jsl rng cfg in
    (doc, formula)
  in
  QCheck.make
    ~print:(fun (d, f) -> Value.to_string d ^ " |= " ^ Jsl.to_string f)
    gen

let prop_jsl_to_schema =
  QCheck.Test.make ~name:"JSL→Schema preserves validation (Thm 1)" ~count:300
    gen_schema_doc (fun (doc, jsl) ->
      let schema = Jschema.Of_jsl.schema jsl in
      Jschema.Validate.validates_schema schema doc = Jsl.validates doc jsl)

let prop_schema_roundtrip =
  QCheck.Test.make ~name:"JSL→Schema→JSL preserves validation" ~count:200
    gen_schema_doc (fun (doc, jsl) ->
      let schema = Jschema.Of_jsl.schema jsl in
      let jsl' = Jschema.To_jsl.schema schema in
      Jsl.validates doc jsl = Jsl.validates doc jsl')

let gen_rec_pair =
  let open QCheck.Gen in
  let gen st =
    let seed = int_range 0 1_000_000 |> fun g -> g st in
    let rng = Jworkload.Prng.create seed in
    let doc = Jworkload.Gen_json.sized rng 40 in
    let cfg = { Jworkload.Gen_formula.default with Jworkload.Gen_formula.size = 7 } in
    let delta = Jworkload.Gen_formula.jsl_rec rng cfg ~n_defs:2 in
    (doc, delta)
  in
  QCheck.make
    ~print:(fun (d, r) ->
      Value.to_string d ^ " |= " ^ Format.asprintf "%a" Jsl_rec.pp r)
    gen

let prop_rec_jsl_to_schema =
  QCheck.Test.make ~name:"recursive JSL→Schema preserves validation (Thm 3)"
    ~count:150 gen_rec_pair (fun (doc, delta) ->
      let schema = Jschema.Of_jsl.document delta in
      Jschema.Validate.validates schema doc = Jsl_rec.validates doc delta)

(* a concrete schema exercising every Table 1 keyword, cross-checked
   against its JSL translation on a battery of documents *)
let full_schema_text =
  {|{
    "definitions": {
      "email": { "type": "string", "pattern": "[A-z]*@ciws.cl" }
    },
    "type": "object",
    "minProperties": 1,
    "maxProperties": 10,
    "required": ["name"],
    "properties": {
      "name": { "type": "string" },
      "age": { "type": "number", "minimum": 0, "maximum": 150 },
      "mail": { "$ref": "#/definitions/email" },
      "scores": {
        "type": "array",
        "items": [ { "type": "number" }, { "type": "number" } ],
        "additionalItems": { "type": "number", "multipleOf": 2 },
        "uniqueItems": true
      }
    },
    "patternProperties": {
      "a(b|c)a": { "type": "number", "multipleOf": 2 }
    },
    "additionalProperties": { "anyOf": [
      { "type": "number", "minimum": 1, "maximum": 1 },
      { "type": "string" },
      { "enum": [ {"ok": 1} ] },
      { "not": { "type": "number" } }
    ] }
  }|}

let battery =
  [ {|{"name":"Sue"}|};
    {|{"name":"Sue","age":30}|};
    {|{"name":"Sue","age":200}|};
    {|{"age":30}|};
    {|{"name":"Sue","mail":"x@ciws.cl"}|};
    {|{"name":"Sue","mail":"x@gmail.com"}|};
    {|{"name":"Sue","aba":4}|};
    {|{"name":"Sue","aba":3}|};
    {|{"name":"Sue","extra":1}|};
    {|{"name":"Sue","extra":2}|};
    {|{"name":"Sue","extra":{"ok":1}}|};
    {|{"name":"Sue","extra":{"ok":2}}|};
    {|{"name":"Sue","scores":[1,2]}|};
    {|{"name":"Sue","scores":[1,2,4,6]}|};
    {|{"name":"Sue","scores":[1,2,3]}|};
    {|{"name":"Sue","scores":[1]}|};
    {|{"name":"Sue","scores":[1,2,4,4]}|};
    {|{"name":"Sue","scores":"nope"}|};
    {|"not even an object"|};
    {|{}|} ]

let test_full_schema_agreement () =
  let schema = Jschema.Parse.of_string_exn full_schema_text in
  let jsl = Jschema.To_jsl.document schema in
  List.iter
    (fun d ->
      let v = parse_doc d in
      let via_schema = Jschema.Validate.validates schema v in
      let via_jsl = Jsl_rec.validates v jsl in
      Alcotest.(check bool)
        (Printf.sprintf "agreement on %s" d)
        via_schema via_jsl)
    battery

let test_email_example () =
  (* the §5.3 example: NOT an email *)
  let schema =
    Jschema.Parse.of_string_exn
      {|{ "definitions": { "email": { "type": "string", "pattern": "[A-z]*@ciws.cl" } },
          "not": { "$ref": "#/definitions/email" } }|}
  in
  let check d expected =
    Alcotest.(check bool) d expected (Jschema.Validate.validates schema (parse_doc d));
    let jsl = Jschema.To_jsl.document schema in
    Alcotest.(check bool) (d ^ " (via JSL)") expected (Jsl_rec.validates (parse_doc d) jsl)
  in
  check {|"someone@ciws.cl"|} false;
  check {|"someone@gmail.com"|} true;
  check {|42|} true;
  check {|{"any":"object"}|} true

let test_mult_of_zero () =
  (* MultOf(0) holds nowhere; its schema must be a well-formed one that
     no value satisfies, not the ill-formed [multipleOf 0] *)
  let f = Jsl.Test (Jsl.Mult_of 0) in
  let schema = Jschema.Of_jsl.schema f in
  let plan = Jschema.Validate.Plan.compile (Jschema.Schema.plain schema) in
  List.iter
    (fun d ->
      let v = parse_doc d in
      Alcotest.(check bool) ("JSL on " ^ d) false (Jsl.validates v f);
      Alcotest.(check bool) ("schema on " ^ d) false
        (Jschema.Validate.validates_schema schema v);
      Alcotest.(check bool) ("plan on " ^ d) false
        (Jschema.Validate.Plan.run plan v))
    [ "0"; "5"; {|"x"|}; "[]"; "{}" ]

let test_single_index_linear () =
  (* a single index i costs a schema linear in i: equal steps in i give
     equal steps in size *)
  let phi = Jsl.Test Jsl.Is_str in
  List.iter
    (fun (name, form) ->
      let size i = Jschema.Schema.schema_size (Jschema.Of_jsl.schema (form i)) in
      let s1 = size 100 and s2 = size 200 and s3 = size 300 in
      Alcotest.(check int)
        (Printf.sprintf "%s: sizes %d, %d, %d grow linearly" name s1 s2 s3)
        (s2 - s1) (s3 - s2))
    [ ("dia_idx", fun i -> Jsl.dia_idx i phi);
      ("box_idx", fun i -> Jsl.box_idx i phi);
      ("MaxCh", fun i -> Jsl.Test (Jsl.Max_ch i)) ]

let test_array_constant_quadratic () =
  (* ~(A) on an n-element array expands to dia_idx 0 .. dia_idx (n-1),
     each linear in its index, so the schema is quadratic in n: equal
     steps in n give equal second differences in size *)
  let size n =
    let arr = Jsont.Value.Arr (List.init n (fun i -> Jsont.Value.Num i)) in
    Jschema.Schema.schema_size
      (Jschema.Of_jsl.schema (Jsl.expand_eq (Jsl.Test (Jsl.Eq_doc arr))))
  in
  let s1 = size 50 and s2 = size 100 and s3 = size 150 and s4 = size 200 in
  Alcotest.(check int)
    (Printf.sprintf "sizes %d, %d, %d, %d grow quadratically" s1 s2 s3 s4)
    (s3 - (2 * s2) + s1)
    (s4 - (2 * s3) + s2)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_jsl_to_jnl;
      prop_jnl_roundtrip;
      prop_jnl_to_jsl;
      prop_jsl_to_schema;
      prop_schema_roundtrip;
      prop_rec_jsl_to_schema ]

let () =
  Alcotest.run "translate"
    [ ("theorem 2",
       [ Alcotest.test_case "out-of-scope constructs" `Quick test_out_of_scope;
         Alcotest.test_case "exponential blow-up family" `Quick test_blowup_family ]);
      ("theorem 1 & 3",
       [ Alcotest.test_case "full Table 1 schema" `Quick test_full_schema_agreement;
         Alcotest.test_case "email example (§5.3)" `Quick test_email_example;
         Alcotest.test_case "MultOf(0) holds nowhere" `Quick test_mult_of_zero;
         Alcotest.test_case "single index is linear" `Quick
           test_single_index_linear;
         Alcotest.test_case "array constant is quadratic" `Quick
           test_array_constant_quadratic ]);
      ("properties", qcheck_tests) ]
