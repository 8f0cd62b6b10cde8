(* Tests for the domain pool and the batch evaluation pipeline: result
   correctness and ordering, jobs-independence of outputs and metric
   totals (the determinism contract CI gates), exception propagation,
   and pool lifecycle. *)

let test_pool_map_basic () =
  let pool = Par.Pool.create 4 in
  Fun.protect
    ~finally:(fun () -> Par.Pool.shutdown pool)
    (fun () ->
      Alcotest.(check int) "lanes" 4 (Par.Pool.lanes pool);
      let items = Array.init 100 Fun.id in
      let out = Par.Pool.map pool (fun x -> x * x) items in
      Alcotest.(check (array int)) "squares in order"
        (Array.init 100 (fun i -> i * i))
        out;
      (* empty and singleton inputs *)
      Alcotest.(check (array int)) "empty" [||]
        (Par.Pool.map pool (fun x -> x) [||]);
      Alcotest.(check (array int)) "singleton" [| 7 |]
        (Par.Pool.map pool (fun x -> x + 1) [| 6 |]))

let test_pool_single_lane () =
  (* one lane: no domains spawned, runs on the caller *)
  let pool = Par.Pool.create 1 in
  Fun.protect
    ~finally:(fun () -> Par.Pool.shutdown pool)
    (fun () ->
      let out = Par.Pool.map pool string_of_int (Array.init 10 Fun.id) in
      Alcotest.(check (array string)) "sequential degenerate"
        (Array.init 10 string_of_int)
        out)

let test_pool_exception () =
  let pool = Par.Pool.create 3 in
  Fun.protect
    ~finally:(fun () -> Par.Pool.shutdown pool)
    (fun () ->
      (match
         Par.Pool.map pool
           (fun x -> if x = 17 then failwith "boom" else x)
           (Array.init 64 Fun.id)
       with
      | _ -> Alcotest.fail "expected the item's exception to propagate"
      | exception Failure m -> Alcotest.(check string) "message" "boom" m);
      (* the pool survives a failed map *)
      let out = Par.Pool.map pool (fun x -> x + 1) [| 1; 2; 3 |] in
      Alcotest.(check (array int)) "pool reusable" [| 2; 3; 4 |] out)

let test_pool_shutdown () =
  let pool = Par.Pool.create 2 in
  Par.Pool.shutdown pool;
  Par.Pool.shutdown pool;
  match Par.Pool.submit pool (fun () -> ()) with
  | () -> Alcotest.fail "submit after shutdown should be rejected"
  | exception Invalid_argument _ -> ()

(* The batch work unit the bench and CLI use: parse a fresh document,
   evaluate a JNL formula against it.  Each call builds its own budget
   — fueled budgets are mutable and must not cross lanes. *)
let phi = Jlogic.Jnl.(Exists (Seq (Key "name", Key "first")))

let batch_work text =
  let t =
    Jsont.Tree.of_string_exn ~budget:(Obs.Budget.create ~fuel:100_000 ()) text
  in
  let ctx = Jlogic.Jnl_eval.context t in
  (Jsont.Tree.node_count t * 2)
  + Bool.to_int (Jlogic.Jnl_eval.holds ctx Jsont.Tree.root phi)

let docs =
  let rng = Jworkload.Prng.create 99 in
  Array.init 40 (fun _ ->
      Jsont.Printer.compact (Jworkload.Gen_json.sized rng 60))

let test_batch_jobs_agreement () =
  Obs.Metrics.set_enabled true;
  let run jobs =
    let reg = Obs.Metrics.create_registry () in
    let out =
      Obs.Metrics.with_registry reg (fun () ->
          Par.Batch.map ~jobs batch_work docs)
    in
    let values =
      Obs.Metrics.with_registry reg (fun () ->
          Obs.Metrics.counter_value "parse.values")
    in
    let batched =
      Obs.Metrics.with_registry reg (fun () ->
          Obs.Metrics.counter_value "par.batch.docs")
    in
    (out, values, batched)
  in
  let out1, values1, batched1 = run 1 in
  let out4, values4, batched4 = run 4 in
  Alcotest.(check (array int)) "results independent of jobs" out1 out4;
  Alcotest.(check int) "parse.values independent of jobs" values1 values4;
  Alcotest.(check bool) "parse.values counted" true (values1 > 0);
  Alcotest.(check int) "docs counted once per doc" (Array.length docs) batched1;
  Alcotest.(check int) "docs counted once per doc (4)" (Array.length docs)
    batched4

(* Stray task exceptions reaching the worker loop must be counted, not
   silently swallowed; non-recoverable ones must kill the worker and
   surface at the shutdown join. *)
let await cond =
  let deadline = Obs.Budget.now_mono () +. 5.0 in
  let rec go () =
    if cond () then true
    else if Obs.Budget.now_mono () > deadline then false
    else begin
      Domain.cpu_relax ();
      go ()
    end
  in
  go ()

let test_pool_stray_counted () =
  let was = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled true;
  let reg = Obs.Metrics.create_registry () in
  Obs.Metrics.with_registry reg (fun () ->
      let pool = Par.Pool.create 3 in
      Par.Pool.submit pool (fun () -> failwith "stray one");
      Par.Pool.submit pool (fun () -> raise Not_found);
      Alcotest.(check bool) "strays counted" true
        (await (fun () -> Par.Pool.stray_exn_count pool = 2));
      (* recoverable strays leave every worker alive and working *)
      let out = Par.Pool.map pool (fun x -> x * 2) (Array.init 50 Fun.id) in
      Alcotest.(check (array int)) "pool survives recoverable strays"
        (Array.init 50 (fun i -> i * 2))
        out;
      Par.Pool.shutdown pool;
      Alcotest.(check int) "total folded into par.pool.stray_exn" 2
        (Obs.Metrics.counter_value "par.pool.stray_exn"));
  Obs.Metrics.set_enabled was

let test_pool_stray_nonrecoverable () =
  let pool = Par.Pool.create 2 in
  Par.Pool.submit pool (fun () -> raise Stack_overflow);
  Alcotest.(check bool) "stray counted" true
    (await (fun () -> Par.Pool.stray_exn_count pool = 1));
  (* the lone worker died re-raising; shutdown joins it and re-raises *)
  match Par.Pool.shutdown pool with
  | () -> Alcotest.fail "expected Stack_overflow to surface at the join"
  | exception Stack_overflow -> ()

let test_batch_map_pool () =
  let pool = Par.Pool.create 2 in
  Fun.protect
    ~finally:(fun () -> Par.Pool.shutdown pool)
    (fun () ->
      let a = Par.Batch.map_pool pool batch_work docs in
      let b = Par.Batch.map ~jobs:1 batch_work docs in
      Alcotest.(check (array int)) "pool batch agrees with sequential" a b)

(* Lazy tree columns under concurrency: the subtree-hash and height
   columns and the label index are built by whichever domain reads
   them first.  Four domains forcing them on one shared tree must read
   exactly what a sequential run and the [of_value] tree read. *)
type column_reads = {
  hashes : int array;
  heights : int array;
  by_height : Jsont.Tree.node list array;
  keyed : (string * Jsont.Tree.node array) list;
}

let read_columns tree keys =
  let module Tree = Jsont.Tree in
  let n = Tree.node_count tree in
  { hashes = Array.init n (Tree.subtree_hash tree);
    heights = Array.init n (Tree.height_of tree);
    by_height = Tree.nodes_by_height tree;
    keyed = List.map (fun k -> (k, Tree.key_index tree k)) keys }

let test_lazy_columns_shared () =
  let module Tree = Jsont.Tree in
  let rng = Jworkload.Prng.create 41 in
  let doc = Jworkload.Gen_json.sized rng 20_000 in
  let text = Jsont.Value.to_string doc in
  let keys =
    let seen = Hashtbl.create 16 in
    Tree.iter_key_index (fun k _ -> Hashtbl.replace seen k ())
      (Tree.of_string_exn text);
    "absent" :: List.of_seq (Hashtbl.to_seq_keys seen)
  in
  let sequential = read_columns (Tree.of_string_exn text) keys in
  let oracle = read_columns (Tree.of_value doc) keys in
  let shared = Tree.of_string_exn text in
  let started = Atomic.make 0 in
  let lane i () =
    (* start together, each reading the columns in its own order *)
    Atomic.incr started;
    while Atomic.get started < 4 do Domain.cpu_relax () done;
    if i mod 2 = 0 then ignore (Tree.height shared);
    read_columns shared (if i mod 2 = 0 then keys else List.rev keys)
  in
  let domains = List.init 4 (fun i -> Domain.spawn (lane i)) in
  List.iteri
    (fun i d ->
      let got = Domain.join d in
      let got = { got with keyed = List.sort compare got.keyed } in
      List.iter
        (fun (what, want) ->
          let want = { want with keyed = List.sort compare want.keyed } in
          Alcotest.(check bool)
            (Printf.sprintf "domain %d agrees with the %s run" i what)
            true (got = want))
        [ ("sequential", sequential); ("of_value", oracle) ])
    domains

(* The lazy sweeps are iterative: a 100k-deep array costs no stack. *)
let test_lazy_columns_deep () =
  let module Tree = Jsont.Tree in
  let depth = 100_000 in
  let text = String.make depth '[' ^ "1" ^ String.make depth ']' in
  let tree = Tree.of_string_exn ~max_depth:(depth + 1) text in
  let doc = ref (Jsont.Value.Num 1) in
  for _ = 1 to depth do doc := Jsont.Value.Arr [ !doc ] done;
  let oracle = Tree.of_value !doc in
  Alcotest.(check int) "root hash" (Tree.subtree_hash oracle Tree.root)
    (Tree.subtree_hash tree Tree.root);
  Alcotest.(check int) "height" depth (Tree.height tree);
  Alcotest.(check int) "leaf height" 0 (Tree.height_of tree depth);
  Alcotest.(check bool) "equal across trees" true
    (Tree.equal_across tree Tree.root oracle Tree.root)

(* ---- the stream automaton shared across domains ------------------------- *)

module Plan = Jschema.Validate.Plan

let catalog_texts n seed =
  let rng = Jworkload.Prng.create seed in
  Array.init n (fun i ->
      let text = Jsont.Value.to_string (Jworkload.Catalog.catalog_doc rng) in
      if i mod 9 = 4 then String.sub text 0 (String.length text / 3) else text)

let stream_outcome plan text =
  match Jsont.Parser.wrap (fun () -> Plan.run_stream plan text) with
  | Ok ok -> Printf.sprintf "Ok %b" ok
  | Error e -> "Error " ^ Format.asprintf "%a" Jsont.Parser.pp_error e

(* Four domains stream through one cold plan at once, each in its own
   order, racing to intern closures and publish edges: every verdict
   and rendered error matches a sequential run and the tree route. *)
let test_stream_automaton_shared () =
  let schema = Jschema.Parse.of_string_exn Jworkload.Catalog.catalog_schema in
  let texts = catalog_texts 200 17 in
  let sequential = Array.map (stream_outcome (Plan.compile schema)) texts in
  let tree_plan = Plan.compile schema in
  let tree =
    Array.map
      (fun text ->
        match Jsont.Tree.of_string text with
        | Ok t -> Printf.sprintf "Ok %b" (Plan.run_tree tree_plan t)
        | Error e -> "Error " ^ Format.asprintf "%a" Jsont.Parser.pp_error e)
      texts
  in
  Alcotest.(check (array string)) "sequential stream = tree route" tree
    sequential;
  let shared = Plan.compile schema in
  let started = Atomic.make 0 in
  let lane l () =
    Atomic.incr started;
    while Atomic.get started < 4 do Domain.cpu_relax () done;
    let n = Array.length texts in
    let got = Array.make n "" in
    for k = 0 to n - 1 do
      let i = if l mod 2 = 0 then k else n - 1 - k in
      got.(i) <- stream_outcome shared texts.(i)
    done;
    got
  in
  let domains = List.init 4 (fun l -> Domain.spawn (lane l)) in
  List.iteri
    (fun l d ->
      Alcotest.(check (array string))
        (Printf.sprintf "domain %d agrees with the sequential run" l)
        sequential (Domain.join d))
    domains

(* Only the compare-and-set winner counts a closure or an edge, so a
   cold plan run at any job count reports the same automaton totals. *)
let test_stream_automaton_totals () =
  Obs.Metrics.set_enabled true;
  let schema = Jschema.Parse.of_string_exn Jworkload.Catalog.catalog_schema in
  let texts = catalog_texts 300 23 in
  let run jobs =
    let plan = Plan.compile schema in
    let reg = Obs.Metrics.create_registry () in
    let out =
      Obs.Metrics.with_registry reg (fun () ->
          Par.Batch.map ~jobs (stream_outcome plan) texts)
    in
    let count name =
      Obs.Metrics.with_registry reg (fun () -> Obs.Metrics.counter_value name)
    in
    (out, count "validate.stream.closures", count "validate.stream.edges")
  in
  let out1, closures1, edges1 = run 1 in
  let out4, closures4, edges4 = run 4 in
  Alcotest.(check (array string)) "results independent of jobs" out1 out4;
  Alcotest.(check bool) "closures counted" true (closures1 > 0);
  Alcotest.(check int) "closures independent of jobs" closures1 closures4;
  Alcotest.(check int) "edges independent of jobs" edges1 edges4

let () =
  Alcotest.run "par"
    [ ("pool",
       [ Alcotest.test_case "map basic" `Quick test_pool_map_basic;
         Alcotest.test_case "single lane" `Quick test_pool_single_lane;
         Alcotest.test_case "exception propagation" `Quick test_pool_exception;
         Alcotest.test_case "shutdown" `Quick test_pool_shutdown;
         Alcotest.test_case "stray exceptions counted" `Quick
           test_pool_stray_counted;
         Alcotest.test_case "non-recoverable strays surface" `Quick
           test_pool_stray_nonrecoverable ]);
      ("batch",
       [ Alcotest.test_case "jobs agreement" `Quick test_batch_jobs_agreement;
         Alcotest.test_case "map_pool" `Quick test_batch_map_pool ]);
      ("tree columns",
       [ Alcotest.test_case "4 domains, one tree" `Quick
           test_lazy_columns_shared;
         Alcotest.test_case "100k-deep array" `Quick test_lazy_columns_deep ]);
      ("stream automaton",
       [ Alcotest.test_case "4 domains, one cold plan" `Quick
           test_stream_automaton_shared;
         Alcotest.test_case "totals independent of jobs" `Quick
           test_stream_automaton_totals ]) ]
