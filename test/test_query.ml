(* Tests for the query front ends: MongoDB-style find and JSONPath. *)

module Value = Jsont.Value

let parse_doc = Jsont.Parser.parse_exn

(* a small people collection, echoing Example 1 of the paper *)
let people =
  List.map parse_doc
    [ {|{"name":"Sue","age":28,"hobbies":["yoga","chess"],"address":{"city":"Santiago"}}|};
      {|{"name":"John","age":32,"hobbies":["fishing","yoga"],"address":{"city":"Lille"}}|};
      {|{"name":"Ana","age":17,"hobbies":[],"address":{"city":"Santiago"}}|};
      {|{"name":"Li","age":45,"orders":[{"total":99},{"total":10}]}|} ]

let names docs =
  List.filter_map (fun d -> Option.map Value.to_string (Value.member "name" d)) docs

let find_names filter_text =
  names (Jquery.Mongo.find (Jquery.Mongo.parse_string_exn filter_text) people)

let check_names label expected filter_text =
  Alcotest.(check (list string)) label expected (find_names filter_text)

let test_example1 () =
  (* db.collection.find({name: {$eq: "Sue"}}, {}) *)
  check_names "find Sue" [ {|"Sue"|} ] {|{"name": {"$eq": "Sue"}}|};
  check_names "implicit eq" [ {|"Sue"|} ] {|{"name": "Sue"}|}

let test_operators () =
  check_names "gt" [ {|"John"|}; {|"Li"|} ] {|{"age": {"$gt": 28}}|};
  check_names "gte" [ {|"Sue"|}; {|"John"|}; {|"Li"|} ] {|{"age": {"$gte": 28}}|};
  check_names "lt" [ {|"Ana"|} ] {|{"age": {"$lt": 28}}|};
  check_names "lte 28" [ {|"Sue"|}; {|"Ana"|} ] {|{"age": {"$lte": 28}}|};
  check_names "ne" [ {|"John"|}; {|"Ana"|}; {|"Li"|} ] {|{"name": {"$ne": "Sue"}}|};
  check_names "exists" [ {|"Li"|} ] {|{"orders": {"$exists": true}}|};
  check_names "not exists" [ {|"Sue"|}; {|"John"|}; {|"Ana"|} ]
    {|{"orders": {"$exists": false}}|};
  check_names "type" [ {|"Li"|} ] {|{"orders": {"$type": "array"}}|};
  check_names "size" [ {|"Sue"|}; {|"John"|} ] {|{"hobbies": {"$size": 2}}|};
  check_names "regex" [ {|"Sue"|}; {|"John"|} ] {|{"name": {"$regex": "o|u"}}|};
  check_names "in" [ {|"Sue"|}; {|"Ana"|} ] {|{"name": {"$in": ["Sue","Ana"]}}|};
  check_names "nin" [ {|"John"|}; {|"Li"|} ] {|{"name": {"$nin": ["Sue","Ana"]}}|};
  check_names "dotted path" [ {|"Sue"|}; {|"Ana"|} ] {|{"address.city": "Santiago"}|};
  check_names "array index path" [ {|"John"|} ] {|{"hobbies.0": "fishing"}|};
  check_names "all" [ {|"Sue"|} ] {|{"hobbies": {"$all": ["yoga", "chess"]}}|};
  check_names "all missing element" [] {|{"hobbies": {"$all": ["yoga", "golf"]}}|};
  check_names "elemMatch" [ {|"Li"|} ]
    {|{"orders": {"$elemMatch": {"total": {"$gt": 50}}}}|};
  check_names "and" [ {|"Sue"|} ]
    {|{"$and": [{"age": {"$gt": 20}}, {"address.city": "Santiago"}]}|};
  check_names "or" [ {|"Sue"|}; {|"Ana"|}; {|"Li"|} ]
    {|{"$or": [{"address.city": "Santiago"}, {"age": {"$gt": 40}}]}|};
  check_names "nor" [ {|"John"|} ]
    {|{"$nor": [{"address.city": "Santiago"}, {"age": {"$gt": 40}}]}|};
  check_names "not" [ {|"Ana"|} ] {|{"age": {"$not": {"$gte": 28}}}|};
  check_names "not includes missing" [ {|"Sue"|}; {|"John"|}; {|"Ana"|} ]
    {|{"orders": {"$not": {"$exists": true}}}|}

let test_parse_errors () =
  List.iter
    (fun s ->
      match Jquery.Mongo.parse_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected filter error on %s" s)
    [ {|{"a": {"$frobnicate": 1}}|};
      {|{"$and": 3}|};
      {|{"a": {"$gt": "high"}}|};
      {|{"a": {"$regex": "("}}|};
      "[1]" ]

let test_to_jnl () =
  (* the equality fragment reaches pure JNL through Theorem 2 *)
  let f = Jquery.Mongo.parse_string_exn {|{"name": "Sue", "address.city": "Santiago"}|} in
  (match Jquery.Mongo.to_jnl f with
  | Error m -> Alcotest.failf "to_jnl failed: %s" m
  | Ok jnl ->
    let selected = List.filter (fun d -> Jlogic.Jnl_eval.satisfies d jnl) people in
    Alcotest.(check (list string)) "JNL agrees with find" [ {|"Sue"|} ] (names selected));
  (* $gt is outside the ~(A) fragment *)
  match Jquery.Mongo.to_jnl (Jquery.Mongo.parse_string_exn {|{"age": {"$gt": 3}}|}) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "$gt should not reach pure JNL"

(* ---- §4.3 operator-semantics audit pins (regressions fail pre-fix) ---- *)

let matches_text ftext dtext =
  Jquery.Mongo.matches (Jquery.Mongo.parse_string_exn ftext) (parse_doc dtext)

let check_match label expected ftext dtext =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %s on %s" label ftext dtext)
    expected (matches_text ftext dtext)

let test_lt_zero () =
  (* pre-fix, [$lt 0] clamped its bound to [Max 0] and wrongly matched
     the value 0 — no natural number is below 0 *)
  check_match "lt" false {|{"age": {"$lt": 0}}|} {|{"age":0}|};
  check_match "lt" true {|{"age": {"$lt": 1}}|} {|{"age":0}|};
  check_match "lt" false {|{"age": {"$lt": 1}}|} {|{"age":1}|};
  (* $not flips it back: everything (with or without the field) matches *)
  check_match "not-lt" true {|{"age": {"$not": {"$lt": 0}}}|} {|{"age":0}|};
  check_match "not-lt" true {|{"age": {"$not": {"$lt": 0}}}|} {|{"x":1}|}

let test_all_empty () =
  (* pre-fix, [$all []] degenerated to a bare array-kind test and
     matched every array; Mongo pins it to match nothing *)
  check_match "all-empty" false {|{"hobbies": {"$all": []}}|} {|{"hobbies":[]}|};
  check_match "all-empty" false {|{"hobbies": {"$all": []}}|}
    {|{"hobbies":["yoga"]}|};
  check_match "all-empty" false {|{"hobbies": {"$all": []}}|} {|{"x":1}|}

let test_mixed_type_comparisons () =
  (* numeric operators require a number at the path: a string there —
     even one spelling a number — must not satisfy them, and $not of a
     numeric operator must therefore accept it *)
  List.iter
    (fun op ->
      check_match "numeric op vs string" false
        (Printf.sprintf {|{"age": {"%s": 5}}|} op)
        {|{"age":"28"}|})
    [ "$gt"; "$gte"; "$lt"; "$lte" ];
  check_match "not-gt accepts string" true {|{"age": {"$not": {"$gt": 5}}}|}
    {|{"age":"28"}|};
  (* $eq across kinds is plain structural disagreement *)
  check_match "eq str vs int" false {|{"age": 28}|} {|{"age":"28"}|};
  check_match "eq int vs str" false {|{"age": "28"}|} {|{"age":28}|}

let test_exists_on_indices () =
  (* digit path segments address array positions and object keys alike *)
  check_match "index exists" true {|{"a.1": {"$exists": true}}|} {|{"a":[10,20]}|};
  check_match "index missing" false {|{"a.5": {"$exists": true}}|} {|{"a":[10,20]}|};
  check_match "index missing, negated" true {|{"a.5": {"$exists": false}}|}
    {|{"a":[10,20]}|};
  check_match "digit object key" true {|{"a.1": {"$exists": true}}|}
    {|{"a":{"1":5}}|};
  check_match "nested path miss" true {|{"a.b.c": {"$exists": false}}|}
    {|{"a":1}|};
  check_match "nested path miss eq" false {|{"a.b": "x"}|} {|{"a":1}|}

let test_ne_nin_missing () =
  (* Mongo's $ne / $nin match documents where the field is absent *)
  check_match "ne missing" true {|{"a": {"$ne": 5}}|} {|{"x":1}|};
  check_match "ne present" false {|{"a": {"$ne": 5}}|} {|{"a":5}|};
  check_match "nin missing" true {|{"a": {"$nin": [5]}}|} {|{"x":1}|};
  check_match "nin present" false {|{"a": {"$nin": [5]}}|} {|{"a":5}|};
  (* ... and through dotted paths, the negation must also cover values
     reached by implicit array traversal (failed pre-fix: the
     traversal was missing, so the $ne below wrongly matched) *)
  check_match "ne through array" false {|{"a.b": {"$ne": 5}}|}
    {|{"a":[{"b":5}]}|};
  check_match "ne through array, other value" true {|{"a.b": {"$ne": 5}}|}
    {|{"a":[{"b":6}]}|};
  check_match "nin through array" false {|{"a.b": {"$nin": [5]}}|}
    {|{"a":[{"c":1},{"b":5}]}|}

let test_implicit_array_traversal () =
  (* "a.b": v matches when a is an array of objects (failed pre-fix) *)
  check_match "traversal eq" true {|{"a.b": 5}|} {|{"a":[{"b":5}]}|};
  check_match "traversal eq later element" true {|{"a.b": 5}|}
    {|{"a":[{"c":1},{"b":5}]}|};
  check_match "traversal no hit" false {|{"a.b": 5}|} {|{"a":[{"b":6}]}|};
  (* one array level per segment: arrays of arrays are not searched *)
  check_match "no nested-array traversal" false {|{"a.b": 5}|}
    {|{"a":[[{"b":5}]]}|};
  check_match "two segments, two levels" true {|{"a.b.c": 7}|}
    {|{"a":[{"b":[{"c":7}]}]}|};
  check_match "traversal under operators" true {|{"a.b": {"$gte": 5}}|}
    {|{"a":[{"b":9}]}|};
  check_match "traversal exists" true {|{"a.b": {"$exists": true}}|}
    {|{"a":[{"b":1}]}|};
  (* digit segments keep addressing positions *)
  check_match "index still works" true {|{"a.0": 10}|} {|{"a":[10,20]}|};
  (* ... and traverse like any other segment: an element object with a
     digit key is found (as in Mongo's path resolution) *)
  check_match "digit key inside elements" true {|{"a.0": 5}|}
    {|{"a":[{"0":5}]}|}

let test_in_regex_and_type_codes () =
  (* $in / $nin accept {"$regex": ...} elements (rejected pre-fix:
     the object was treated as a literal and never matched) *)
  check_match "in regex" true {|{"a": {"$in": [{"$regex": "^x"}]}}|}
    {|{"a":"xyz"}|};
  check_match "in regex no match" false {|{"a": {"$in": [{"$regex": "^x"}]}}|}
    {|{"a":"yz"}|};
  check_match "in mixes literals and regexes" true
    {|{"a": {"$in": [5, {"$regex": "ylo"}]}}|} {|{"a":"xylophone"}|};
  check_match "nin regex" false {|{"a": {"$nin": [{"$regex": "ylo"}]}}|}
    {|{"a":"xylophone"}|};
  check_match "nin regex missing field" true
    {|{"a": {"$nin": [{"$regex": "ylo"}]}}|} {|{"x":1}|};
  (* object literals without $regex are plain membership *)
  check_match "object literal in $in" true {|{"a": {"$in": [{"y": 1}]}}|}
    {|{"a":{"y":1}}|};
  (* a $regex element admits no further keys, and no non-string body *)
  List.iter
    (fun s ->
      match Jquery.Mongo.parse_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected filter error on %s" s)
    [ {|{"a": {"$in": [{"$regex": 5}]}}|};
      {|{"a": {"$in": [{"$regex": "x", "y": 1}]}}|} ];
  (* $type numeric codes and aliases (rejected pre-fix) *)
  check_match "type 16 int" true {|{"a": {"$type": 16}}|} {|{"a":5}|};
  check_match "type 16 not string" false {|{"a": {"$type": 16}}|} {|{"a":"5"}|};
  check_match "type 18 long" true {|{"a": {"$type": 18}}|} {|{"a":5}|};
  check_match "type 1 double" true {|{"a": {"$type": 1}}|} {|{"a":5}|};
  check_match "type 2 string" true {|{"a": {"$type": 2}}|} {|{"a":"s"}|};
  check_match "type 3 object" true {|{"a": {"$type": 3}}|} {|{"a":{}}|};
  check_match "type 4 array" true {|{"a": {"$type": 4}}|} {|{"a":[]}|};
  check_match "type alias int" true {|{"a": {"$type": "int"}}|} {|{"a":5}|};
  check_match "type alias long" true {|{"a": {"$type": "long"}}|} {|{"a":5}|};
  check_match "type alias double" true {|{"a": {"$type": "double"}}|} {|{"a":5}|};
  check_match "type alias decimal" true {|{"a": {"$type": "decimal"}}|} {|{"a":5}|};
  match Jquery.Mongo.parse_string {|{"a": {"$type": 99}}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown $type code must be rejected"

let test_translation_differential () =
  (* [matches] must agree with the JSL translation on every document,
     with a one-stage [$match] pipeline (the translation compiled into
     a schema plan), and — where the filter reaches the pure-JNL
     fragment of Theorem 2 — with the JNL translation as well *)
  let filters =
    [ {|{"age": {"$lt": 0}}|}; {|{"age": {"$lt": 28}}|};
      {|{"age": {"$gt": 5}}|}; {|{"age": {"$gte": 0}}|};
      {|{"age": {"$lte": 0}}|}; {|{"hobbies": {"$all": []}}|};
      {|{"hobbies": {"$all": ["yoga"]}}|}; {|{"a.1": {"$exists": true}}|};
      {|{"a.5": {"$exists": false}}|}; {|{"a.b.c": {"$exists": false}}|};
      {|{"name": "Sue"}|}; {|{"age": 28}|}; {|{"age": "28"}|};
      {|{"hobbies": {"$size": 2}}|}; {|{"age": {"$not": {"$gt": 5}}}|};
      {|{"name": {"$in": ["Sue", "Ana"]}}|};
      {|{"$or": [{"age": {"$lt": 1}}, {"a.1": {"$exists": true}}]}|};
      (* the §4.3 bugfix sweep: implicit array traversal, $ne/$nin on
         missing and traversed fields, regex $in elements, $type codes *)
      {|{"a.b": 5}|}; {|{"a.b": {"$ne": 5}}|}; {|{"a.b": {"$exists": true}}|};
      {|{"a.b": {"$exists": false}}|}; {|{"a.b.c": 7}|};
      {|{"a.0": 5}|}; {|{"a.0": {"$exists": true}}|};
      {|{"a": {"$ne": 5}}|}; {|{"a": {"$nin": [5, "x"]}}|};
      {|{"a.b": {"$nin": [5]}}|};
      {|{"name": {"$in": [{"$regex": "^S"}, "Li"]}}|};
      {|{"name": {"$nin": [{"$regex": "o|u"}]}}|};
      {|{"a": {"$type": 16}}|}; {|{"a": {"$type": 4}}|};
      {|{"a": {"$type": "int"}}|}; {|{"a": {"$type": 2}}|};
      {|{"a": {"$not": {"$type": 3}}}|};
      {|{"hobbies": {"$all": ["yoga", "chess"]}}|};
      {|{"orders": {"$elemMatch": {"total": {"$gte": 50}}}}|};
      {|{"$and": [{"a.b": {"$gte": 5}}, {"a.b": {"$lte": 9}}]}|};
      {|{"$nor": [{"a.b": 5}, {"age": {"$gte": 18}}]}|} ]
  in
  let docs =
    people
    @ List.map parse_doc
        [ {|{"age":0}|}; {|{"age":"28"}|}; {|{"a":[10,20]}|}; {|{"a":{"1":5}}|};
          {|{"hobbies":[]}|}; {|{"a":1}|}; {|{}|}; {|{"a":{"b":{"c":3}}}|};
          (* array-traversal shapes *)
          {|{"a":[{"b":5}]}|}; {|{"a":[{"c":1},{"b":9}]}|};
          {|{"a":[[{"b":5}]]}|}; {|{"a":[{"b":[{"c":7}]}]}|};
          {|{"a":[{"0":5}]}|}; {|{"a":[]}|}; {|{"a":"xylophone"}|};
          {|{"a":{"b":5}}|}; {|{"a":[5,"x"]}|} ]
  in
  Alcotest.(check bool) "differential covers >= 30 filters" true
    (List.length filters >= 30);
  List.iter
    (fun ftext ->
      let f = Jquery.Mongo.parse_string_exn ftext in
      let jsl = Jquery.Mongo.to_jsl f in
      let jnl =
        match Jquery.Mongo.to_jnl f with Ok jnl -> Some jnl | Error _ -> None
      in
      let stage =
        Jquery.Mongo_agg.parse_string_exn (Printf.sprintf {|[{"$match": %s}]|} ftext)
      in
      List.iter
        (fun d ->
          let direct = Jquery.Mongo.matches f d in
          Alcotest.(check bool)
            (Printf.sprintf "JSL agrees: %s on %s" ftext (Value.to_string d))
            direct
            (Jlogic.Jsl.validates d jsl);
          Alcotest.(check bool)
            (Printf.sprintf "plan agrees: %s on %s" ftext (Value.to_string d))
            direct
            (Jquery.Mongo_agg.run stage [ d ] <> []);
          match jnl with
          | None -> ()
          | Some jnl ->
            Alcotest.(check bool)
              (Printf.sprintf "JNL agrees: %s on %s" ftext (Value.to_string d))
              direct
              (Jlogic.Jnl_eval.satisfies d jnl))
        docs)
    filters

let test_projection () =
  let doc = parse_doc {|{"name":"Sue","age":28,"address":{"city":"Santiago","zip":1}}|} in
  let proj s = Jquery.Mongo.parse_projection (parse_doc s) in
  (match proj {|{"name":1,"address.city":1}|} with
  | Ok p ->
    Alcotest.(check string) "include"
      {|{"name":"Sue","address":{"city":"Santiago"}}|}
      (Value.to_string (Jquery.Mongo.project p doc))
  | Error m -> Alcotest.fail m);
  (match proj {|{"age":0,"address.zip":0}|} with
  | Ok p ->
    Alcotest.(check string) "exclude"
      {|{"name":"Sue","address":{"city":"Santiago"}}|}
      (Value.to_string (Jquery.Mongo.project p doc))
  | Error m -> Alcotest.fail m);
  (match proj {|{"a":1,"b":0}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "mixed projection must be rejected");
  match proj {|{}|} with
  | Ok p ->
    Alcotest.(check string) "empty projection keeps all"
      (Value.to_string doc)
      (Value.to_string (Jquery.Mongo.project p doc))
  | Error m -> Alcotest.fail m

(* ------------------------------------------------------------------ *)
(* JSONPath                                                             *)
(* ------------------------------------------------------------------ *)

(* Gössner's classic store document, trimmed to the model *)
let store =
  parse_doc
    {|{ "store": {
        "book": [
          { "category": "reference", "author": "Nigel Rees", "title": "Sayings", "price": 8 },
          { "category": "fiction", "author": "Evelyn Waugh", "title": "Sword", "price": 12 },
          { "category": "fiction", "author": "Herman Melville", "title": "Moby Dick", "price": 9 },
          { "category": "fiction", "author": "J. R. R. Tolkien", "title": "LotR", "price": 22 }
        ],
        "bicycle": { "color": "red", "price": 19 }
      } }|}

let sel path = List.map Value.to_string (Jquery.Jsonpath.select_exn store path)

let test_jsonpath_basics () =
  Alcotest.(check (list string)) "authors"
    [ {|"Nigel Rees"|}; {|"Evelyn Waugh"|}; {|"Herman Melville"|}; {|"J. R. R. Tolkien"|} ]
    (sel "$.store.book[*].author");
  Alcotest.(check (list string)) "first book title" [ {|"Sayings"|} ]
    (sel "$.store.book[0].title");
  Alcotest.(check (list string)) "last book title" [ {|"LotR"|} ]
    (sel "$.store.book[-1].title");
  Alcotest.(check (list string)) "slice" [ {|"Sayings"|}; {|"Sword"|} ]
    (sel "$.store.book[0:2].title");
  Alcotest.(check (list string)) "open slice" [ {|"Moby Dick"|}; {|"LotR"|} ]
    (sel "$.store.book[2:].title");
  Alcotest.(check int) "all prices (recursive descent)" 5
    (List.length (sel "$..price"));
  Alcotest.(check (list string)) "bracket name" [ {|"red"|} ]
    (sel "$.store.bicycle['color']");
  Alcotest.(check int) "wildcard children of store" 2 (List.length (sel "$.store.*"));
  Alcotest.(check (list string)) "union of indices"
    [ {|"Sayings"|}; {|"Moby Dick"|} ]
    (sel "$.store.book[0,2].title");
  Alcotest.(check int) "everything" 1 (List.length (sel "$"))

let test_jsonpath_filter () =
  (* books cheaper than 10: filter with a JNL formula *)
  Alcotest.(check (list string)) "filtered titles"
    [ {|"Sayings"|}; {|"Moby Dick"|} ]
    (sel "$.store.book[*][?(eq(.price, 8) | eq(.price, 9))].title");
  Alcotest.(check (list string)) "filter on category"
    [ {|"Sayings"|} ]
    (sel {|$.store.book[*][?(eq(.category, "reference"))].title|})

let test_jsonpath_errors () =
  List.iter
    (fun p ->
      match Jquery.Jsonpath.parse p with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected jsonpath error on %s" p)
    [ "$."; "$.store["; "$x%"; "$..["; {|$['a\x']|}; {|$['a\uD800x']|};
      {|$['a\uDC00']|}; {|$['a\u12']|}; {|$['unterminated|};
      "$.store.book[?(eq(.a, \"x\")]" ]

(* regression: index literals the machine int cannot hold escaped as
   [Failure _] from the raising [int_of_string]; RFC 9535 pins the
   valid range to I-JSON's ±(2^53-1), outside of which parsing must
   fail with a positioned error *)
let test_jsonpath_index_bounds () =
  List.iter
    (fun p ->
      match Jquery.Jsonpath.parse p with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected out-of-range error on %s" p)
    [ "$[99999999999999999999]"; "$[-99999999999999999999]";
      "$[9007199254740992]"; "$[-9007199254740992]";
      "$[0:99999999999999999999]"; "$[99999999999999999999:]";
      (* a bare '-' with no digits used to crash [Option.get] *)
      "$[-]"; "$[-:2]" ];
  (* the extremes of the valid range still parse *)
  List.iter
    (fun p ->
      match Jquery.Jsonpath.parse p with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "in-range index rejected (%s): %s" p m)
    [ "$[9007199254740991]"; "$[-9007199254740991]"; "$[0:9007199254740991]" ]

(* regression: a digit-run path segment too large for [int] raised
   [Failure] out of the Mongo→JSL translation; it can only name an
   object key, never an array position *)
let test_mongo_numeric_segment_overflow () =
  let f =
    Jquery.Mongo.parse_string_exn {|{"a.99999999999999999999": 5}|}
  in
  let jsl = Jquery.Mongo.to_jsl f (* raised Failure pre-fix *) in
  let doc = parse_doc {|{"a": {"99999999999999999999": 5}}|} in
  Alcotest.(check bool) "oversized digit segment addresses the key" true
    (Jquery.Mongo.matches f doc);
  Alcotest.(check bool) "JSL translation agrees" true
    (Jlogic.Jsl.validates doc jsl);
  let doc2 = parse_doc {|{"a": {"x": 5}}|} in
  Alcotest.(check bool) "no match elsewhere" false
    (Jquery.Mongo.matches f doc2 || Jlogic.Jsl.validates doc2 jsl)

let test_jsonpath_negative_slices () =
  (* RFC 9535: negative slice bounds offset by the array's length *)
  Alcotest.(check (list string)) "[-2:] last two"
    [ {|"Moby Dick"|}; {|"LotR"|} ]
    (sel "$.store.book[-2:].title");
  Alcotest.(check (list string)) "[1:-1] middle"
    [ {|"Sword"|}; {|"Moby Dick"|} ]
    (sel "$.store.book[1:-1].title");
  Alcotest.(check (list string)) "[:-2] all but last two"
    [ {|"Sayings"|}; {|"Sword"|} ]
    (sel "$.store.book[:-2].title");
  Alcotest.(check (list string)) "[-3:-1]"
    [ {|"Sword"|}; {|"Moby Dick"|} ]
    (sel "$.store.book[-3:-1].title");
  (* bound exceeding the length clamps instead of wrapping *)
  Alcotest.(check (list string)) "[-9:2] clamps to [0:2]"
    [ {|"Sayings"|}; {|"Sword"|} ]
    (sel "$.store.book[-9:2].title")

let test_jsonpath_empty_slices () =
  (* statically empty slices are successful empty selections, not
     parse errors *)
  List.iter
    (fun p ->
      match Jquery.Jsonpath.select store p with
      | Ok [] -> ()
      | Ok vs -> Alcotest.failf "%s must select nothing, got %d hits" p (List.length vs)
      | Error m -> Alcotest.failf "%s must parse: %s" p m)
    [ "$.store.book[1:1]"; "$.store.book[2:2]"; "$.store.book[3:1]";
      "$.store.book[:0]"; "$.store.book[-1:-3]"; "$.store.book[0:0]" ]

let test_jsonpath_filter_quoted_paren () =
  (* a ')' inside a quoted string must not close the filter *)
  Alcotest.(check (list string)) "paren in string"
    []
    (sel {|$.store.book[*][?(eq(.category, "refe)rence"))].title|});
  Alcotest.(check (list string)) "paren in string, still matches"
    [ {|"Sayings"|} ]
    (sel {|$.store.book[*][?(eq(.category, "reference") | eq(.title, "x)y"))].title|});
  (* and inside a regex literal: \) is a literal paren, unbalanced *)
  Alcotest.(check (list string)) "paren in regex"
    [ {|"red"|} ]
    (sel {|$.store.bicycle[?(<.~/colo\)?r/>)].color|})

let test_jsonpath_escapes () =
  let doc =
    parse_doc
      {|{"a'b":1,"c\"d":2,"e\\f":3,"g\nh":4,"tab\tx":5,"slash/y":6,"uéz":7}|}
  in
  let one label path expected =
    match Jquery.Jsonpath.select doc path with
    | Ok [ Value.Num n ] -> Alcotest.(check int) label expected n
    | Ok other -> Alcotest.failf "%s: got %d hits" label (List.length other)
    | Error m -> Alcotest.failf "%s: %s" label m
  in
  one "escaped single quote" {|$['a\'b']|} 1;
  one "escaped double quote" {|$["c\"d"]|} 2;
  one "escaped backslash" {|$['e\\f']|} 3;
  one "escaped newline" {|$['g\nh']|} 4;
  one "escaped tab" {|$['tab\tx']|} 5;
  one "escaped slash" {|$['slash\/y']|} 6;
  one "unicode escape" {|$['u\u00e9z']|} 7;
  (* surrogate pair 𝄞 = U+1D11E, UTF-8 f0 9d 84 9e *)
  let clef = parse_doc "{\"\xF0\x9D\x84\x9E\":8}" in
  match Jquery.Jsonpath.select clef {|$['\uD834\uDD1E']|} with
  | Ok [ Value.Num n ] -> Alcotest.(check int) "surrogate pair" 8 n
  | Ok other -> Alcotest.failf "surrogate pair: got %d hits" (List.length other)
  | Error m -> Alcotest.failf "surrogate pair: %s" m

let test_jsonpath_compiles_to_jnl () =
  (* the embedding claim: selection equals JNL path evaluation *)
  let p = Jquery.Jsonpath.parse_exn "$..book[0].author" in
  let frag = Jlogic.Jnl.classify_path p in
  Alcotest.(check bool) "recursive descent uses Star" true frag.Jlogic.Jnl.recursive;
  let tree = Jsont.Tree.of_value store in
  let nodes = Jquery.Jsonpath.select_nodes tree p in
  Alcotest.(check int) "one author" 1 (List.length nodes)


let test_jsonpath_paths () =
  match Jquery.Jsonpath.select_with_paths store "$..price" with
  | Error m -> Alcotest.fail m
  | Ok hits ->
    Alcotest.(check int) "five prices" 5 (List.length hits);
    List.iter
      (fun (ptr, v) ->
        (* the returned pointer resolves back to the returned value *)
        match Jsont.Pointer.get ptr store with
        | Some v' -> Alcotest.(check bool) "pointer resolves" true (Value.equal v v')
        | None -> Alcotest.failf "dangling pointer %s" (Jsont.Pointer.to_string ptr))
      hits;
    let rendered = List.map (fun (p, _) -> Jsont.Pointer.to_string p) hits in
    Alcotest.(check bool) "first path" true
      (List.mem "store.book[0].price" rendered);
    Alcotest.(check bool) "bicycle path" true
      (List.mem "store.bicycle.price" rendered)

let () =
  Alcotest.run "query"
    [ ("mongo",
       [ Alcotest.test_case "Example 1" `Quick test_example1;
         Alcotest.test_case "operators" `Quick test_operators;
         Alcotest.test_case "parse errors" `Quick test_parse_errors;
         Alcotest.test_case "to JNL (Theorem 2)" `Quick test_to_jnl;
         Alcotest.test_case "$lt 0 is unsatisfiable" `Quick test_lt_zero;
         Alcotest.test_case "$all [] matches nothing" `Quick test_all_empty;
         Alcotest.test_case "mixed-type comparisons" `Quick
           test_mixed_type_comparisons;
         Alcotest.test_case "$exists on indices and missing paths" `Quick
           test_exists_on_indices;
         Alcotest.test_case "$ne/$nin on missing and traversed fields" `Quick
           test_ne_nin_missing;
         Alcotest.test_case "implicit array traversal" `Quick
           test_implicit_array_traversal;
         Alcotest.test_case "$in regexes and $type codes" `Quick
           test_in_regex_and_type_codes;
         Alcotest.test_case "numeric segment overflow" `Quick
           test_mongo_numeric_segment_overflow;
         Alcotest.test_case "matches = JSL = JNL translation" `Quick
           test_translation_differential;
         Alcotest.test_case "projection (§6)" `Quick test_projection ]);
      ("jsonpath",
       [ Alcotest.test_case "basics" `Quick test_jsonpath_basics;
         Alcotest.test_case "filters" `Quick test_jsonpath_filter;
         Alcotest.test_case "errors" `Quick test_jsonpath_errors;
         Alcotest.test_case "index bounds (I-JSON)" `Quick
           test_jsonpath_index_bounds;
         Alcotest.test_case "negative slices" `Quick test_jsonpath_negative_slices;
         Alcotest.test_case "empty slices" `Quick test_jsonpath_empty_slices;
         Alcotest.test_case "quoted parens in filters" `Quick
           test_jsonpath_filter_quoted_paren;
         Alcotest.test_case "name escapes" `Quick test_jsonpath_escapes;
         Alcotest.test_case "compiles to JNL" `Quick test_jsonpath_compiles_to_jnl;
         Alcotest.test_case "result paths" `Quick test_jsonpath_paths ]) ]
