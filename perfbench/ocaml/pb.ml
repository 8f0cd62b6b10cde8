(* Helper program of the repository benchmark (perfbench/run.py).

   Subcommands, all working inside one workload directory DIR:

     gen WORKLOAD SEED DIR        write the seeded inputs of a workload
     oracle WORKLOAD DIR OUT      write the reference outputs into OUT
     probe WORKLOAD DIR JOBS      traced in-process run: per-layer metrics
     calib ROUNDS                 fixed reference work: the host's speed

   The jsonlogic binary only ever sees the files [gen] writes; the
   references come from independent library routes (the Value-based
   validator, [Jnl_eval.satisfies], [Mongo_agg.run]). *)

open Jsont
module Prng = Jworkload.Prng

let now = Obs.Budget.now_mono
let ( // ) = Filename.concat

(* Inputs are rewritten in place, run after run: the file is not
   truncated to zero first, only cut to its new length, so an unchanged
   block count allocates and frees nothing.  Truncating rewrites and
   deleting thousands of files both left the file system (ext4, online
   discard) busy for the next writer, and set-up time swung fivefold. *)
let write_file path s =
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let n = String.length s in
      let rec go off = if off < n then go (off + Unix.write_substring fd s off (n - off)) in
      go 0;
      Unix.ftruncate fd n)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let read_lines path =
  read_file path |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")
  |> Array.of_list

let mkdir_p dir =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      Unix.mkdir d 0o755
    end
  in
  go dir

(* ---- shared workload definitions -------------------------------------------- *)

(* the twelve E-CORPUS queries of bench/main.ml: four navigational-core
   chains answered from postings, six equalities answered from value
   postings, two residual predicates answered by filtered reparse *)
let corpus_queries =
  [ ("core", "<.name.first>");
    ("core", "<.orders[0].lines[0].sku>");
    ("core", "<.no_such_key_anywhere>");
    ("core", "<.name.first> & !<.orders[2]>");
    ("eq", "eq(.name.first, \"John\")");
    ("eq", "eq(.orders[0].lines[0].sku, \"SKU-0-0\")");
    ("eq", "eq(.age, 42)");
    ("eq", "eq(.name.first, \"Zebediah\")");
    ("eq", "eq(.name.first, \"John\") | eq(.name.first, \"Sue\")");
    ("eq", "<.id> & eq(.name.first, \"Sue\")");
    ("filtered", "<.orders[0:*]?(eq(.status, \"shipped\"))>");
    ("filtered", "<.hobbies[-1]>") ]

(* the E-MONGO pipeline: a streaming $match/$unwind/$project prefix and
   a blocking $group/$sort suffix *)
let pipeline_text =
  {|[{"$match": {"age": {"$gte": 30}}}, {"$unwind": "$orders"}, {"$project": {"st": "$orders.status", "total": "$orders.total"}}, {"$group": {"_id": "$st", "orders": {"$count": {}}, "sum": {"$sum": "$total"}, "hi": {"$max": "$total"}}}, {"$sort": {"sum": 0}}]|}

let eval_formula = {|eq(.name.first, "John")|}

(* a malformed variant of a valid record: cut short, or a stray byte
   where a value should start *)
let corrupt rng text =
  let n = String.length text in
  match Prng.int rng 3 with
  | 0 -> String.sub text 0 (1 + Prng.int rng (n - 1))
  | 1 -> (
    match String.index_opt text ':' with
    | Some i -> String.sub text 0 (i + 1) ^ "@" ^ String.sub text (i + 1) (n - i - 1)
    | None -> text ^ "}")
  | _ -> text ^ " x"

(* the cold share of the probe's daemon requests: the catalog schema plus one unused,
   uniquely named definition, so every text hashes to a new plan-cache
   key while compiling to the same work *)
let cold_schema schema k =
  let prefix = {|{"definitions":{|} in
  let plen = String.length prefix in
  assert (String.sub schema 0 plen = prefix);
  Printf.sprintf "%s\"cold%d\":{\"type\":\"number\"},%s" prefix k
    (String.sub schema plen (String.length schema - plen))

(* ---- gen -------------------------------------------------------------------- *)

let write_ndjson path lines =
  let b = Buffer.create (1 lsl 16) in
  Array.iter
    (fun l ->
      Buffer.add_string b l;
      Buffer.add_char b '\n')
    lines;
  write_file path (Buffer.contents b)

(* one file per document plus a --files-from list naming them *)
let write_files dir sub texts =
  mkdir_p (dir // sub);
  let paths =
    Array.mapi
      (fun i t ->
        let p = dir // sub // Printf.sprintf "%05d.json" i in
        write_file p t;
        p)
      texts
  in
  write_ndjson (dir // "list.txt") paths

let catalog_records rng ~target_bytes ~malformed_pct =
  let acc = ref [] and bytes = ref 0 in
  while !bytes < target_bytes do
    let t = Value.to_string (Jworkload.Catalog.catalog_doc rng) in
    let t = if Prng.int rng 100 < malformed_pct then corrupt rng t else t in
    acc := t :: !acc;
    bytes := !bytes + String.length t + 1
  done;
  Array.of_list (List.rev !acc)

let gen workload seed dir =
  mkdir_p dir;
  let rng = Prng.create seed in
  let sizes = ref [] in
  let note k v = sizes := (k, v) :: !sizes in
  let total texts = Array.fold_left (fun a t -> a + String.length t) 0 texts in
  (match workload with
  | "validate-catalog" ->
    let recs = catalog_records rng ~target_bytes:(8 * 1_000_000) ~malformed_pct:1 in
    write_file (dir // "schema.json") Jworkload.Catalog.catalog_schema;
    write_ndjson (dir // "records.ndjson") recs;
    write_files dir "recs" recs;
    note "docs" (Array.length recs);
    note "bytes" (total recs)
  | "batch-small" ->
    let docs =
      Array.init 8000 (fun i ->
          Value.to_string
            (if i mod 4 = 3 then
               match Jworkload.Gen_json.sized rng 60 with
               | Value.Obj _ as v -> v
               | v -> Value.Obj [ ("k1", v) ]
             else Jworkload.Gen_json.api_record rng 3))
    in
    write_files dir "docs" docs;
    write_ndjson (dir // "docs.ndjson") docs;
    write_file (dir // "pipeline.json") pipeline_text;
    note "docs" (Array.length docs);
    note "bytes" (total docs)
  | w -> failwith ("unknown workload " ^ w));
  write_ndjson (dir // "queries.txt")
    (Array.of_list (List.map (fun (c, q) -> c ^ "\t" ^ q) corpus_queries));
  print_string
    ("{"
    ^ String.concat ", "
        (List.rev_map (fun (k, v) -> Printf.sprintf "%S: %d" k v) !sizes)
    ^ "}\n")

(* ---- references ------------------------------------------------------------- *)

let pp_err e = "error: " ^ Format.asprintf "%a" Parser.pp_error e

(* the Value-route validator: the interpreter, not the compiled plan *)
let oracle_cell schema text =
  match Parser.parse text with
  | Error e -> pp_err e
  | Ok v -> if Jschema.Validate.validates schema v then "valid" else "INVALID"

(* the reparse route of an index query: one verdict per line *)
let reparse_verdicts lines phis =
  let per_line =
    Array.map
      (fun text ->
        match Tree.of_string ~budget:(Obs.Budget.create ()) text with
        | Error e -> List.map (fun _ -> pp_err e) phis
        | Ok tree ->
          List.map
            (fun phi ->
              let ctx = Jlogic.Jnl_eval.context ~budget:(Obs.Budget.create ()) tree in
              match Jlogic.Jnl_eval.holds ctx Tree.root phi with
              | b -> string_of_bool b
              | exception Failure m -> "error: " ^ m
              | exception Obs.Budget.Exhausted r -> "error: " ^ Obs.Budget.describe r)
            phis)
      lines
  in
  List.mapi
    (fun k _ ->
      let b = Buffer.create (Array.length lines * 8) in
      Array.iteri
        (fun i vs -> Printf.bprintf b "%d\t%s\n" (i + 1) (List.nth vs k))
        per_line;
      Buffer.contents b)
    phis

let parse_query q =
  match Jlogic.Jnl.parse q with Ok f -> f | Error m -> failwith ("bad query: " ^ m)

let oracle workload dir out =
  mkdir_p out;
  match workload with
  | "validate-catalog" ->
    let schema = Jschema.Parse.of_string_exn (read_file (dir // "schema.json")) in
    let docs = read_lines (dir // "records.ndjson") in
    write_ndjson (out // "cells.txt") (Array.map (oracle_cell schema) docs)
  | "batch-small" ->
    let values = Array.map Parser.parse_exn (read_lines (dir // "docs.ndjson")) in
    let phi = parse_query eval_formula in
    write_ndjson (out // "eval.txt")
      (Array.map (fun v -> string_of_bool (Jlogic.Jnl_eval.satisfies v phi)) values);
    let pl = Jquery.Mongo_agg.parse_string_exn pipeline_text in
    write_ndjson (out // "aggregate.txt")
      (Array.of_list
         (List.map Printer.compact
            (Jquery.Mongo_agg.run pl (Array.to_list values))))
  | w -> failwith ("unknown workload " ^ w)

(* ---- daemon requests: the probe's serve mix -------------------------------- *)

type req = Warm of int | Cold of int | Indexq of int | Bad of int

(* 90% VALIDATE by schema-id, 4% inline VALIDATE with a never-seen
   schema, 4% INDEXQ, 2% malformed documents: exact shares in a seeded
   order, so seeds vary the documents and the interleaving, not the mix *)
let schedule seed ~ndocs ~nbad ~nq =
  let rng = Prng.create ((seed * 7919) + 13) in
  let n = 4096 in
  let share pct = n * pct / 100 in
  let reqs =
    List.concat
      [ List.init (share 4) (fun _ -> Cold (Prng.int rng ndocs));
        List.init (share 4) (fun k -> Indexq (k mod nq));
        List.init (share 2) (fun _ -> Bad (Prng.int rng nbad)) ]
  in
  let reqs = reqs @ List.init (n - List.length reqs) (fun _ -> Warm (Prng.int rng ndocs)) in
  Array.of_list (Prng.shuffle rng reqs)

let class_name = function
  | Warm _ -> "warm"
  | Cold _ -> "cold"
  | Indexq _ -> "indexq"
  | Bad _ -> "bad"

type serve_env = {
  ep : Jserve.Server.endpoint;
  schema : string;
  schema_id : string;
  docs : string array;
  bad : string array;
  index : string;
  queries : string array;
  expect_doc : string array;
  expect_bad : string array;
  expect_q : string array;
}

let make_env ~sock ~schema ~docs ~bad ~index ~index_lines =
  let plan = Jschema.Validate.Plan.compile (Jschema.Parse.of_string_exn schema) in
  (* the in-process streaming checker: the cell validate --stream prints *)
  let cell text =
    match
      Parser.wrap (fun () ->
          Jschema.Validate.Plan.run_stream ~budget:(Obs.Budget.create ()) plan text)
    with
    | Ok true -> "valid"
    | Ok false -> "INVALID"
    | Error e -> pp_err e
  in
  let queries = Array.of_list (List.map snd corpus_queries) in
  { ep = `Unix sock;
    schema;
    schema_id = Jserve.Plan_cache.id_of_schema schema;
    docs;
    bad;
    index;
    queries;
    expect_doc = Array.map cell docs;
    expect_bad = Array.map cell bad;
    expect_q =
      Array.of_list
        (reparse_verdicts index_lines
           (List.map parse_query (Array.to_list queries))) }

(* one request on its own connection: at --jobs N the daemon's pool
   serves N-1 connections at a time (the accept loop holds a lane), so
   N persistent connections would starve one another *)
let request env ~cold_key req =
  let c = Jserve.Client.connect env.ep in
  Fun.protect
    ~finally:(fun () -> Jserve.Client.close c)
    (fun () ->
      match req with
      | Warm i ->
        ( Jserve.Client.validate c ~schema_id:env.schema_id env.docs.(i),
          env.expect_doc.(i),
          String.length env.docs.(i) )
      | Cold i ->
        let schema = cold_schema env.schema cold_key in
        ( Jserve.Client.validate_inline c ~schema env.docs.(i),
          env.expect_doc.(i),
          String.length schema + String.length env.docs.(i) )
      | Indexq q ->
        ( Jserve.Client.index_query c ~index:env.index env.queries.(q),
          env.expect_q.(q),
          String.length env.index + String.length env.queries.(q) )
      | Bad i ->
        ( Jserve.Client.validate c ~schema_id:env.schema_id env.bad.(i),
          env.expect_bad.(i),
          String.length env.bad.(i) ))

let checked env ~cold_key req =
  match request env ~cold_key req with
  | Ok reply, expected, bytes -> (reply = expected, bytes)
  | Error _, _, bytes -> (false, bytes)
  | exception (Jserve.Client.Server_gone | Unix.Unix_error _ | Sys_error _) ->
    (false, 0)

(* ---- probe: the traced in-process run ---------------------------------------- *)

(* Spans stay in memory while the run lasts and are written out at the
   end: name, start, end, parent span, the document or request id, and
   the bytes/nodes the call handled.  Recording is off outside traced
   passes, where [span] is a plain call. *)
type span = {
  id : int;
  parent : int;
  name : string;
  t0 : float;
  t1 : float;
  item : int;
  bytes : int;
  nodes : int;
}

let tracing = ref false
let spans = ref []
let next_id = ref 0
let stack = ref [ 0 ]

let span ?(item = -1) ?(bytes = 0) ?(nodes = fun _ -> 0) name f =
  if not !tracing then f ()
  else begin
    incr next_id;
    let id = !next_id in
    let parent = List.hd !stack in
    stack := id :: !stack;
    let finish t0 n =
      let t1 = now () in
      stack := List.tl !stack;
      spans := { id; parent; name; t0; t1; item; bytes; nodes = n } :: !spans
    in
    let t0 = now () in
    match f () with
    | v ->
      finish t0 (nodes v);
      v
    | exception e ->
      finish t0 0;
      raise e
  end

let set_traced on =
  tracing := on;
  Obs.Metrics.set_enabled on

let write_spans path t_origin =
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc "%d\t%d\t%s\t%.0f\t%.0f\t%d\t%d\t%d\n" s.id s.parent
            s.name
            ((s.t0 -. t_origin) *. 1e9)
            ((s.t1 -. t_origin) *. 1e9)
            s.item s.bytes s.nodes)
        (List.rev !spans))

(* one layer pass, twice: untraced (wall time and GC deltas, metrics
   off) and traced (spans and Obs.Metrics counters on) *)
type pass_stat = { wall : float; minor_words : float; majors : int }

let gc_stats = ref []

let untraced f =
  set_traced false;
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let t0 = now () in
  let r = f () in
  let wall = now () -. t0 in
  let g1 = Gc.quick_stat () in
  ( r,
    { wall;
      minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
      majors = g1.Gc.major_collections - g0.Gc.major_collections } )

let layer name ~bytes f =
  let _, st = untraced f in
  gc_stats := (name, bytes, st) :: !gc_stats;
  Obs.Metrics.reset ();
  set_traced true;
  let r = span ("pass." ^ name) f in
  set_traced false;
  r

let words_per_byte name =
  match List.find_opt (fun (n, _, _) -> n = name) !gc_stats with
  | Some (_, b, s) when b > 0 -> s.minor_words /. float_of_int b
  | _ -> 0.

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let probe workload dir jobs =
  let t_origin = now () in
  (* the workload's documents, capped to a 4 MB prefix so a traced run
     stays as short as a timed one *)
  let all_docs, schema_text =
    match workload with
    | "validate-catalog" ->
      (read_lines (dir // "records.ndjson"), read_file (dir // "schema.json"))
    | "batch-small" ->
      (read_lines (dir // "docs.ndjson"), Jworkload.Catalog.catalog_schema)
    | w -> failwith ("unknown workload " ^ w)
  in
  let docs =
    let acc = ref 0 and n = ref 0 in
    while !n < Array.length all_docs && !acc < 4_000_000 do
      acc := !acc + String.length all_docs.(!n) + 1;
      incr n
    done;
    Array.sub all_docs 0 !n
  in
  let ndocs = Array.length docs in
  let total = Array.fold_left (fun a t -> a + String.length t) 0 docs in
  let prefix_ndjson = dir // "probe.ndjson" in
  write_ndjson prefix_ndjson docs;
  (* the CLI's view of the same prefix: one file per document *)
  (match workload with
  | "validate-catalog" | "batch-small" ->
    let paths = read_lines (dir // "list.txt") in
    write_ndjson (dir // "probe_list.txt") (Array.sub paths 0 ndocs)
  | _ -> ());
  let raw = ref [] in
  let put k v = raw := (k, v) :: !raw in
  (* lexer *)
  let lex text =
    let lx = Lexer.create text in
    let rec go n = match snd (Lexer.next lx) with Lexer.Eof -> n | _ -> go (n + 1) in
    go 0
  in
  layer "lexer" ~bytes:total (fun () ->
      Array.iteri
        (fun i t ->
          ignore
            (span "lexer" ~item:i ~bytes:(String.length t) (fun () ->
                 try lex t with Lexer.Error _ -> 0)))
        docs);
  (* tree *)
  let trees =
    layer "tree" ~bytes:total (fun () ->
        Array.mapi
          (fun i t ->
            span "tree.of_string" ~item:i ~bytes:(String.length t)
              ~nodes:(function Ok tr -> Tree.node_count tr | Error _ -> 0)
              (fun () -> Tree.of_string ~budget:(Obs.Budget.create ()) t))
          docs)
  in
  let trees =
    Array.of_list
      (List.filter_map (function Ok t -> Some t | Error _ -> None) (Array.to_list trees))
  in
  (* plan *)
  let schema = Jschema.Parse.of_string_exn schema_text in
  let plan = Jschema.Validate.Plan.compile schema in
  set_traced true;
  for _ = 1 to 30 do
    ignore (span "plan.compile" (fun () -> Jschema.Validate.Plan.compile schema))
  done;
  set_traced false;
  layer "plan.run_tree" ~bytes:total (fun () ->
      Array.iteri
        (fun i t ->
          ignore
            (span "plan.run_tree" ~item:i ~nodes:(fun _ -> Tree.node_count t)
               (fun () ->
                 Jschema.Validate.Plan.run_tree ~budget:(Obs.Budget.create ()) plan t)))
        trees);
  put "plan.memo_hits_per_doc"
    (float_of_int (Obs.Metrics.counter_value "validate.memo.hit")
    /. float_of_int (max 1 (Array.length trees)));
  layer "plan.run_stream" ~bytes:total (fun () ->
      Array.iteri
        (fun i t ->
          ignore
            (span "plan.run_stream" ~item:i ~bytes:(String.length t) (fun () ->
                 Parser.wrap (fun () ->
                     Jschema.Validate.Plan.run_stream
                       ~budget:(Obs.Budget.create ()) plan t))))
        docs);
  put "plan.stream_skip_frac"
    (float_of_int (Obs.Metrics.counter_value "validate.stream.skipped_bytes")
    /. float_of_int (max 1 total));
  (* jnl_eval *)
  let phi = parse_query eval_formula in
  let eval_tree t =
    let ctx = Jlogic.Jnl_eval.context ~budget:(Obs.Budget.create ()) t in
    Jlogic.Jnl_eval.holds ctx Tree.root phi
  in
  layer "jnl_eval" ~bytes:total (fun () ->
      Array.iteri
        (fun i t ->
          ignore
            (span "jnl_eval" ~item:i ~nodes:(fun _ -> Tree.node_count t) (fun () ->
                 eval_tree t)))
        trees);
  (* aggregation: streaming prefix per document, blocking suffix once *)
  let pl = Jquery.Mongo_agg.parse_string_exn pipeline_text in
  let streaming, blocking = Jquery.Mongo_agg.split_streaming pl in
  layer "agg" ~bytes:total (fun () ->
      let flat =
        Array.mapi
          (fun i t ->
            span "agg.prefix" ~item:i (fun () ->
                Jquery.Mongo_agg.apply_doc streaming (Jquery.Mongo_agg.doc_of_tree t)))
          trees
      in
      span "agg.suffix" (fun () ->
          ignore (Jquery.Mongo_agg.run_docs blocking (List.concat (Array.to_list flat)))));
  (* index: build at 1 and [jobs] lanes, open with body verify, query *)
  let idx = dir // "probe.idx" in
  let build j =
    match Jindex.Writer.build ~jobs:j ~corpus:prefix_ndjson ~output:idx () with
    | Ok st -> st
    | Error m -> failwith ("index build: " ^ m)
  in
  ignore (build jobs);
  set_traced true;
  let stats = ref None in
  for _ = 1 to 2 do
    ignore (span "index.build.j1" (fun () -> build 1));
    stats := Some (span "index.build.jn" (fun () -> build jobs))
  done;
  set_traced false;
  let idx_bytes = match !stats with Some s -> s.Jindex.Writer.bytes | None -> 0 in
  put "index.bytes_per_byte" (float_of_int idx_bytes /. float_of_int (total + ndocs));
  let open_idx () =
    match Jindex.Reader.open_ idx with Ok r -> r | Error m -> failwith m
  in
  let queries = List.map (fun (c, q) -> (c, parse_query q)) corpus_queries in
  (* the CLI-equivalent work of one index query: open, verify, answer *)
  let query_all () =
    List.iter
      (fun (cls, q) ->
        let r = span "index.open" open_idx in
        (match
           span ("index.query." ^ cls) (fun () -> Jindex.Query.run ~jobs:1 r q)
         with
        | Ok _ -> ()
        | Error m -> failwith m);
        Jindex.Reader.close r)
      queries
  in
  ignore (untraced query_all);
  set_traced true;
  for _ = 1 to 3 do
    span "pass.index" query_all
  done;
  set_traced false;
  let reparsed = ref 0 and confirmed = ref 0 in
  Obs.Metrics.reset ();
  set_traced true;
  let r = open_idx () in
  List.iter
    (fun (cls, q) ->
      if cls = "filtered" then begin
        let before = Obs.Metrics.counter_value "index.query.reparsed" in
        (match Jindex.Query.run ~jobs:1 r q with
        | Ok vs ->
          Array.iter (fun v -> if v = Jindex.Query.True then incr confirmed) vs
        | Error m -> failwith m);
        reparsed := !reparsed + Obs.Metrics.counter_value "index.query.reparsed" - before
      end)
    queries;
  Jindex.Reader.close r;
  set_traced false;
  put "index.query.confirm_frac"
    (if !reparsed = 0 then 1. else float_of_int !confirmed /. float_of_int !reparsed);
  (* par: the same eval batch at 1 and [jobs] lanes; busy time measured
     inside the closure, one slot per item *)
  let busy = Array.make ndocs 0. in
  let batch_item i =
    let t0 = now () in
    let v = match Tree.of_string ~budget:(Obs.Budget.create ()) docs.(i) with
      | Ok t -> eval_tree t
      | Error _ -> false
    in
    busy.(i) <- now () -. t0;
    v
  in
  let items = Array.init ndocs Fun.id in
  ignore (Par.Batch.map ~jobs batch_item items);
  set_traced true;
  let walls = ref [] in
  for _ = 1 to 3 do
    ignore (span "par.batch.j1" (fun () -> Par.Batch.map ~jobs:1 batch_item items));
    let t0 = now () in
    ignore (span "par.batch.jn" (fun () -> Par.Batch.map ~jobs batch_item items));
    walls := (now () -. t0, Array.fold_left ( +. ) 0. busy) :: !walls
  done;
  for _ = 1 to 50 do
    ignore (span "par.pool_setup" (fun () -> Par.Batch.map ~jobs Fun.id [| 1; 2 |]))
  done;
  set_traced false;
  put "par.busy_frac"
    (median
       (List.map (fun (w, b) -> b /. (w *. float_of_int jobs)) !walls));
  (* serve: an in-process daemon at [jobs] lanes on the same documents,
     driven by the request mix of [schedule] over one client *)
  let sock = dir // "probe.sock" in
  let bad = Array.init (max 1 (min 40 (ndocs / 10))) (fun i ->
      corrupt (Prng.create i) docs.(i)) in
  let env =
    make_env ~sock ~schema:schema_text ~docs:(Array.sub docs 0 (min 400 ndocs)) ~bad
      ~index:idx ~index_lines:docs
  in
  let srv =
    Jserve.Server.start
      { (Jserve.Server.default_config (`Unix sock)) with Jserve.Server.jobs }
  in
  let serve_failed = ref 0 in
  let served = ref 0 in
  Fun.protect
    ~finally:(fun () -> Jserve.Server.stop srv)
    (fun () ->
      let c = Jserve.Client.connect env.ep in
      ignore (Jserve.Client.put_schema c schema_text);
      Jserve.Client.close c;
      let sched =
        schedule 1 ~ndocs:(Array.length env.docs) ~nbad:(Array.length bad)
          ~nq:(Array.length env.queries)
      in
      set_traced true;
      Array.iteri
        (fun k req ->
          if k < 600 then begin
            incr served;
            let ok, _ =
              span ("serve." ^ class_name req) ~item:k (fun () ->
                  checked env ~cold_key:(1_000_000_000 + k) req)
            in
            if not ok then incr serve_failed
          end)
        sched;
      set_traced false;
      let c = Jserve.Client.connect env.ep in
      (match Jserve.Client.metrics c with
      | Ok js ->
        let v = Parser.parse_exn js in
        let get k =
          match Value.member k v with Some (Value.Num n) -> float_of_int n | _ -> 0.
        in
        let h = get "serve.plan_cache.hit" and m = get "serve.plan_cache.miss" in
        put "serve.plan_cache.hit_frac" (if h +. m = 0. then 0. else h /. (h +. m))
      | Error _ -> incr serve_failed);
      Jserve.Client.close c);
  (* the CLI-equivalent in-process pass: untraced for the CLI overhead
     and the trace overhead, traced for the latter *)
  let main_pass () =
    match workload with
    | "validate-catalog" ->
      Array.iteri
        (fun i t ->
          ignore
            (span "main.validate" ~item:i (fun () ->
                 match Tree.of_string ~budget:(Obs.Budget.create ()) t with
                 | Ok tr ->
                   Jschema.Validate.Plan.run_tree ~budget:(Obs.Budget.create ()) plan tr
                 | Error _ -> false)))
        docs
    | _ ->
      Array.iteri
        (fun i t ->
          ignore
            (span "main.eval" ~item:i (fun () ->
                 match Tree.of_string ~budget:(Obs.Budget.create ()) t with
                 | Ok tr -> eval_tree tr
                 | Error _ -> false)))
        docs
  in
  let plain = ref [] and traced = ref [] in
  for _ = 1 to 3 do
    let (), st = untraced main_pass in
    plain := st.wall :: !plain;
    Obs.Metrics.reset ();
    set_traced true;
    let t0 = now () in
    span "pass.main" main_pass;
    traced := (now () -. t0) :: !traced;
    set_traced false
  done;
  put "cli_inproc_s" (median !plain);
  put "trace_overhead_frac" ((median !traced /. median !plain) -. 1.);
  (* GC totals over the untraced per-document layer passes *)
  let words, bytes, majors =
    List.fold_left
      (fun (w, b, m) (_, by, s) -> (w +. s.minor_words, b + by, m + s.majors))
      (0., 0, 0) !gc_stats
  in
  put "gc.minor_words_per_byte" (words /. float_of_int (max 1 bytes));
  put "gc.major_collections" (float_of_int majors);
  put "lexer.words_per_byte" (words_per_byte "lexer");
  put "tree.of_string.words_per_byte" (words_per_byte "tree");
  put "plan.run_stream.words_per_byte" (words_per_byte "plan.run_stream");
  put "docs" (float_of_int ndocs);
  put "bytes" (float_of_int total);
  put "serve.requests" (float_of_int !served);
  put "serve.failed" (float_of_int !serve_failed);
  write_spans (dir // "spans.tsv") t_origin;
  print_string
    ("{"
    ^ String.concat ", "
        (List.rev_map (fun (k, v) -> Printf.sprintf "%S: %.17g" k v) !raw)
    ^ "}\n")

(* ---- calib: the host's speed, on code the repository cannot change ---------- *)

(* Fixed work that calls none of the repository's libraries: tokenise a
   JSON-like text into a list of strings and count the distinct ones in
   a hash table, so it scans bytes, allocates and chases pointers much
   as the parser does.  Its wall time measures how fast the host runs
   such code at that moment. *)
let calib rounds =
  let rng = Random.State.make [| 42 |] in
  let b = Buffer.create (1 lsl 20) in
  for i = 0 to 20_000 do
    Printf.bprintf b "{\"k%d\":[%d,\"s%d\",true,null]}," (i mod 97)
      (Random.State.int rng 1000) i
  done;
  let s = Buffer.contents b in
  let n = String.length s in
  let acc = ref 0 in
  for _ = 1 to rounds do
    let toks = ref [] and i = ref 0 in
    while !i < n do
      let c = s.[!i] in
      if c = '"' then begin
        let j = String.index_from s (!i + 1) '"' in
        toks := String.sub s (!i + 1) (j - !i - 1) :: !toks;
        i := j + 1
      end
      else begin
        if c >= '0' && c <= '9' then acc := !acc + Char.code c;
        incr i
      end
    done;
    let h = Hashtbl.create 1024 in
    List.iter (fun t -> Hashtbl.replace h t (String.length t)) !toks;
    acc := !acc + Hashtbl.length h
  done;
  Printf.printf "%d\n" !acc

(* ---- main ------------------------------------------------------------------- *)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "gen"; w; seed; dir ] -> gen w (int_of_string seed) dir
  | [ "oracle"; w; dir; out ] -> oracle w dir out
  | [ "probe"; w; dir; jobs ] -> probe w dir (int_of_string jobs)
  | [ "calib"; rounds ] -> calib (int_of_string rounds)
  | _ ->
    prerr_endline "usage: pb (gen W SEED DIR | oracle W DIR OUT | probe W DIR JOBS | calib ROUNDS)";
    exit 2
