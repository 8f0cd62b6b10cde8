(* Tests for streaming deterministic JSL (the §6 conjecture) through the
   compiled plan: [Plan.run_stream (Plan.of_jsl (Jsl.expand_eq ϕ))]. *)

open Jlogic
module Value = Jsont.Value
module Plan = Jschema.Validate.Plan

let re = Rexp.Parse.parse_exn

(* the conjecture's fragment: closed, deterministic, no [Unique] once
   ~(A) tests are expanded *)
let streamable f =
  let f = Jsl.expand_eq f in
  Jsl.is_deterministic f && (not (Jsl.uses_unique f)) && Jsl.free_vars f = []

(* [~(A)] tests are expanded first, so constants stream instead of
   spilling into a one-value [enum] *)
let stream_stats text f =
  let plan = Plan.of_jsl (Jsl.expand_eq f) in
  match Jsont.Parser.wrap (fun () -> Plan.run_stream_stats plan text) with
  | Ok r -> Ok r
  | Error e -> Error (Format.asprintf "%a" Jsont.Parser.pp_error e)

let stream text f = Result.map fst (stream_stats text f)

let stream_validates text f =
  match stream text f with
  | Ok b -> b
  | Error m -> Alcotest.failf "stream error on %s: %s" text m

(* deterministic JNL streams through the Theorem 2 translation *)
let stream_jnl text phi =
  match Translate.jnl_to_jsl phi with
  | Error m -> Error ("not streamable: " ^ m)
  | Ok f when not (streamable f) -> Error "not streamable"
  | Ok f -> stream text f

let test_supported () =
  Alcotest.(check bool) "deterministic key" true
    (streamable (Jsl.dia_key "a" (Jsl.Test Jsl.Is_int)));
  Alcotest.(check bool) "Unique must be unsupported" false
    (streamable (Jsl.Test Jsl.Unique));
  Alcotest.(check bool) "regex modality must be unsupported" false
    (streamable (Jsl.Dia_keys (re "a|b", Jsl.True)));
  Alcotest.(check bool) "unbounded range must be unsupported" false
    (streamable (Jsl.Dia_range (0, None, Jsl.True)));
  (* ~(A) is fine: compiled away *)
  Alcotest.(check bool) "~(A) is expanded" true
    (streamable (Jsl.Test (Jsl.Eq_doc (Jsont.Parser.parse_exn {|{"a":[1]}|}))))

let test_expand_eq () =
  let v = Jsont.Parser.parse_exn {|{"a":[1,"x"],"b":{}}|} in
  let f = Jsl.expand_eq (Jsl.Test (Jsl.Eq_doc v)) in
  Alcotest.(check bool) "expanded formula deterministic" true (Jsl.is_deterministic f);
  (* semantics preserved, on both the tree and the stream *)
  List.iter
    (fun (expected, d) ->
      Alcotest.(check bool) d expected (Jsl.validates (Jsont.Parser.parse_exn d) f);
      Alcotest.(check bool) ("stream " ^ d) expected (stream_validates d f))
    [ (true, {|{"a":[1,"x"],"b":{}}|});
      (true, {|{"b":{},"a":[1,"x"]}|});
      (false, {|{"a":[1,"x"]}|});
      (false, {|{"a":[1,"y"],"b":{}}|});
      (false, {|{"a":[1,"x",2],"b":{}}|});
      (false, {|{"a":[1,"x"],"b":{},"c":0}|});
      (false, {|5|}) ]

let test_stream_basics () =
  let phi =
    Jsl.conj
      [ Jsl.Test Jsl.Is_obj;
        Jsl.dia_key "name" (Jsl.Test Jsl.Is_str);
        Jsl.dia_key "age" (Jsl.And (Jsl.Test (Jsl.Min 0), Jsl.Test (Jsl.Max 150)));
        Jsl.box_key "nick" (Jsl.Test Jsl.Is_str) ]
  in
  Alcotest.(check bool) "valid person" true
    (stream_validates {|{"name":"Sue","age":28}|} phi);
  Alcotest.(check bool) "with nick" true
    (stream_validates {|{"name":"Sue","age":28,"nick":"S"}|} phi);
  Alcotest.(check bool) "bad nick" false
    (stream_validates {|{"name":"Sue","age":28,"nick":7}|} phi);
  Alcotest.(check bool) "missing name" false (stream_validates {|{"age":28}|} phi);
  Alcotest.(check bool) "age too big" false
    (stream_validates {|{"name":"Sue","age":200}|} phi);
  Alcotest.(check bool) "not an object" false (stream_validates {|[1,2]|} phi)

let test_stream_malformed () =
  let phi = Jsl.Test Jsl.Is_obj in
  List.iter
    (fun text ->
      match stream text phi with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected stream error on %s" text)
    [ "{"; "{\"a\":}"; "{\"a\":1,}"; "[1,]"; "true"; "{\"a\":1} trailing";
      {|{"dup":1,"dup":2}|} ]

let gen_det_pair =
  let open QCheck.Gen in
  let gen st =
    let seed = int_range 0 1_000_000 |> fun g -> g st in
    let rng = Jworkload.Prng.create seed in
    let doc = Jworkload.Gen_json.sized rng 60 in
    let cfg = { Jworkload.Gen_formula.default with Jworkload.Gen_formula.size = 10 } in
    let formula = Jworkload.Gen_formula.jsl rng cfg in
    (doc, formula)
  in
  QCheck.make
    ~print:(fun (d, f) -> Value.to_string d ^ " |= " ^ Jsl.to_string f)
    gen

let prop_stream_agrees_with_tree =
  QCheck.Test.make ~name:"streaming = tree-based evaluation" ~count:400 gen_det_pair
    (fun (doc, formula) ->
      if not (streamable formula) then QCheck.assume_fail ()
      else
        let text = Value.to_string doc in
        match stream text formula with
        | Ok b -> b = Jsl.validates doc formula
        | Error m -> QCheck.Test.fail_reportf "stream error: %s" m)

let test_constant_memory () =
  (* peak obligations must not grow with document size *)
  let phi = Jsl.dia_key "id" (Jsl.Test Jsl.Is_int) in
  let peaks =
    List.map
      (fun n ->
        let rng = Jworkload.Prng.create 42 in
        let doc =
          Value.Obj
            [ ("id", Value.Num 1); ("payload", Jworkload.Gen_json.sized rng n) ]
        in
        match stream_stats (Value.to_string doc) phi with
        | Ok (true, stats) -> stats.Plan.peak_obligations
        | Ok (false, _) -> Alcotest.fail "should validate"
        | Error m -> Alcotest.fail m)
      [ 100; 1_000; 10_000 ]
  in
  let flat peaks =
    match peaks with
    | [ p1; p2; p3 ] ->
      Alcotest.(check bool)
        (Printf.sprintf "peaks stay flat (%d, %d, %d)" p1 p2 p3)
        true
        (p1 = p2 && p2 = p3)
    | _ -> assert false
  in
  flat peaks;
  (* also when every element is streamed, not skipped: obligations are
     released as each element's frame closes *)
  let each = Jsl.Box_range (0, None, Jsl.dia_key "id" (Jsl.Test Jsl.Is_int)) in
  flat
    (List.map
       (fun n ->
         let text =
           "[" ^ String.concat "," (List.init n (Printf.sprintf {|{"id":%d}|})) ^ "]"
         in
         match stream_stats text each with
         | Ok (true, stats) ->
           Alcotest.(check int) "root, elements and ids streamed" (1 + (2 * n))
             stats.Plan.values;
           stats.Plan.peak_obligations
         | Ok (false, _) -> Alcotest.fail "should validate"
         | Error m -> Alcotest.fail m)
       [ 100; 1_000; 10_000 ])

let test_values_counted () =
  (* only the values the formula addresses are streamed; the rest of
     the document is skipped uncounted *)
  let text = {|{"a":1,"b":[2,3]}|} in
  let values f =
    match stream_stats text f with
    | Ok (true, stats) -> stats.Plan.values
    | Ok (false, _) -> Alcotest.fail "should validate"
    | Error m -> Alcotest.fail m
  in
  Alcotest.(check int) "root only" 1 (values (Jsl.Test Jsl.Is_obj));
  Alcotest.(check int) "every value" 5
    (values
       (Jsl.conj
          [ Jsl.dia_key "a" (Jsl.Test Jsl.Is_int);
            Jsl.dia_key "b" (Jsl.And (Jsl.dia_idx 0 Jsl.True, Jsl.dia_idx 1 Jsl.True)) ]))

let test_validate_jnl () =
  let phi = Jnl.parse_exn {|eq(.name.first, "John") & !<.archived>|} in
  let doc = {|{"name":{"first":"John"},"age":32}|} in
  (match stream_jnl doc phi with
  | Ok b -> Alcotest.(check bool) "det JNL streams" true b
  | Error m -> Alcotest.fail m);
  (match stream_jnl {|{"name":{"first":"Jane"}}|} phi with
  | Ok b -> Alcotest.(check bool) "mismatch detected" false b
  | Error m -> Alcotest.fail m);
  (* non-deterministic / recursive formulas are rejected *)
  (match stream_jnl doc (Jnl.Exists (Jnl.Star (Jnl.Key "a"))) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "recursive formula must be rejected");
  match stream_jnl doc (Jnl.Eq_paths (Jnl.Key "a", Jnl.Key "b")) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "EQ(α,β) must be rejected"

let prop_validate_jnl_agrees =
  QCheck.Test.make ~name:"JNL streaming = tree evaluation" ~count:300
    gen_det_pair (fun (doc, _) ->
      let rng = Jworkload.Prng.create 23 in
      let cfg = { Jworkload.Gen_formula.default with Jworkload.Gen_formula.size = 8 } in
      let phi = Jworkload.Gen_formula.jnl rng cfg in
      match stream_jnl (Value.to_string doc) phi with
      | Error _ -> QCheck.assume_fail ()
      | Ok b -> b = Jlogic.Jnl_eval.satisfies doc phi)

let () =
  Alcotest.run "stream"
    [ ("fragment",
       [ Alcotest.test_case "supported" `Quick test_supported;
         Alcotest.test_case "expand_eq" `Quick test_expand_eq ]);
      ("validation",
       [ Alcotest.test_case "basics" `Quick test_stream_basics;
         Alcotest.test_case "malformed input" `Quick test_stream_malformed;
         Alcotest.test_case "constant memory" `Quick test_constant_memory;
         Alcotest.test_case "value stats" `Quick test_values_counted ]);
      ("jnl",
       [ Alcotest.test_case "validate_jnl" `Quick test_validate_jnl;
         QCheck_alcotest.to_alcotest prop_validate_jnl_agrees ]);
      ("properties",
       [ QCheck_alcotest.to_alcotest prop_stream_agrees_with_tree ]) ]
