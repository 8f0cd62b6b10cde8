(* Streaming validation: the §6 conjecture in action.  A JSON-lines
   feed is validated against a deterministic JSL schema without
   building any tree — memory stays bounded by the formula, not the
   documents.  The formula is compiled once into a validation plan and
   checked by the same streaming executor as [validate --stream].

   Run with: dune exec examples/streaming_validation.exe *)

module Value = Jsont.Value
module Plan = Jschema.Validate.Plan
open Jlogic

let () =
  (* the shape every event must have *)
  let event_schema =
    Jsl.conj
      [ Jsl.Test Jsl.Is_obj;
        Jsl.dia_key "kind" (Jsl.Test Jsl.Is_str);
        Jsl.dia_key "seq" (Jsl.Test (Jsl.Min 0));
        Jsl.box_key "payload" (Jsl.Test (Jsl.Min_ch 0)) ]
  in
  if Jsl.is_deterministic event_schema && not (Jsl.uses_unique event_schema)
  then print_endline "schema is in the streamable deterministic fragment"
  else failwith "not streamable";
  let plan = Plan.of_jsl event_schema in
  let validate line =
    Jsont.Parser.wrap (fun () -> Plan.run_stream_stats plan line)
  in

  (* build a feed: 1000 events, a few malformed *)
  let rng = Jworkload.Prng.create 99 in
  let event i =
    let base =
      [ ("kind", Value.Str (Jworkload.Prng.choose rng [ "click"; "view"; "buy" ]));
        ("seq", Value.Num i);
        ("payload", Jworkload.Gen_json.sized rng 40) ]
    in
    if i mod 97 = 0 then Value.Obj (List.remove_assoc "kind" base) (* corrupt *)
    else Value.Obj base
  in
  let feed = List.init 1000 event in
  let lines = List.map Value.to_string feed in
  let bytes = List.fold_left (fun acc l -> acc + String.length l) 0 lines in
  Printf.printf "feed: %d events, %d bytes\n" (List.length lines) bytes;

  (* stream-validate every line *)
  let valid = ref 0 and invalid = ref 0 and peak = ref 0 in
  let t0 = Sys.time () in
  List.iter
    (fun line ->
      match validate line with
      | Ok (ok, stats) ->
        incr (if ok then valid else invalid);
        peak := max !peak stats.Plan.peak_obligations
      | Error e -> Format.printf "lex/parse error: %a@." Jsont.Parser.pp_error e)
    lines;
  let dt = Sys.time () -. t0 in
  Printf.printf "valid=%d invalid=%d  (%d corrupted on purpose)\n" !valid !invalid
    (List.length (List.filter (fun i -> i mod 97 = 0) (List.init 1000 Fun.id)));
  Printf.printf "throughput: %.1f MB/s, peak live obligations: %d\n"
    (float_of_int bytes /. 1e6 /. dt)
    !peak;

  (* constants: even a single huge document needs no proportional memory *)
  let huge =
    Value.Obj
      [ ("kind", Value.Str "bulk");
        ("seq", Value.Num 1);
        ("payload", Jworkload.Gen_json.sized (Jworkload.Prng.create 1) 200_000) ]
  in
  match validate (Value.to_string huge) with
  | Ok (ok, stats) ->
    Printf.printf
      "\n200k-value document: valid=%b, %d values streamed, peak obligations \
       still %d\n"
      ok stats.Plan.values stats.Plan.peak_obligations
  | Error e -> Format.printf "%a@." Jsont.Parser.pp_error e
