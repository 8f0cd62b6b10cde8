module Value = Jsont.Value
module Tree = Jsont.Tree
module Lexer = Jsont.Lexer
module Parser = Jsont.Parser
module Dfa = Rexp.Dfa

(* Enum constants are pre-hashed with the tree hash so the runtime
   check is an integer binary search plus at most a handful of
   structural comparisons on hash-equal candidates. *)
type enum_entry = { e_hash : int; e_size : int; e_value : Value.t }

(* One plan node is the compiled form of one schema conjunction.  All
   subschema positions hold plan ids into the enclosing plan's node
   array; every keyword family is pre-resolved to the exact shape the
   executor consumes:

   - conjunct interactions are resolved at compile time the same way
     the interpreter resolves them at every visit: the {e last}
     [items]/[additionalItems] conjunct wins (lowered to a length
     interval and position ranges), {e all}
     [additionalProperties] conjuncts apply, and a key is "named"
     (exempt from [additionalProperties]) iff some sibling
     [properties] lists it or some sibling [patternProperties] regex
     matches it;
   - numeric bounds collapse to one interval, [type] conjuncts to one
     kind bitmask (two distinct types = empty mask = always false). *)
type node = {
  type_mask : int;  (* bit 0 = object, 1 = array, 2 = string, 3 = number *)
  patterns : Dfa.t array;
  min_bound : int;  (* max over [minimum] conjuncts; [min_int] if none *)
  max_bound : int;  (* min over [maximum] conjuncts; [max_int] if none *)
  multiples : int array;
  min_props : int;
  max_props : int;
  required : string array;
  props : (string, int array) Hashtbl.t;  (* key-dispatch table *)
  pattern_props : (Dfa.t * int) array;
  additional : int array;  (* all [additionalProperties]; [] = absent *)
  min_items : int;  (* arrays only: length bounds … *)
  max_items : int;
  positions : (int * int * int) array;
    (* … and (lo, hi, plan): the elements at positions lo..hi, where
       present, validate plan; ascending in lo *)
  unique : bool;
  enums : enum_entry array array;  (* one sorted set per [enum] conjunct *)
  any_of : int array array;  (* one disjunction group per [anyOf] *)
  all_of : int array;  (* [allOf] members and resolved [$ref] targets *)
  nots : int array;
}

(* The stream executor's closure automaton (built lazily, see "execution
   over the token stream" below).  A state is the same-node closure of a
   requested plan-id set; its transitions are memoized member/element
   edges. *)
module Keys = Parser.Keys

module Id_sets = Map.Make (struct
  type t = int list  (* ascending, distinct *)

  let compare = List.compare Int.compare
end)

type closure = {
  c_ids : int array;  (* slot -> plan id, post-order *)
  c_cyclic : bool;
  c_enum : bool;  (* some slot carries [enum] *)
  c_unique : bool;  (* some slot carries [uniqueItems] *)
  c_requested : int array;  (* the requested ids, ascending *)
  c_requested_slots : int array;  (* ... and their slots *)
  c_slot_of : (int, int) Hashtbl.t;  (* plan id -> slot; read by edge builds *)
  c_any_of : int array array array;  (* per slot: [anyOf] groups, as slots *)
  c_all_of : int array array;  (* per slot: [allOf]/[$ref], as slots *)
  c_nots : int array array;  (* per slot: [not], as slots *)
  c_keys : int Keys.t;  (* [properties]/[required] key -> key index *)
  c_key_names : string array;  (* key index -> key *)
  c_key_required : int array array;  (* key index -> slots requiring it *)
  c_required : int array;  (* per slot: its number of required keys *)
  c_requires : bool;  (* some slot has required keys *)
  c_patterns : Dfa.t array;  (* distinct [patternProperties] regexes *)
  c_masked : bool;  (* pattern matches fit an int mask *)
  c_members : (int * edge) list Atomic.t array;
    (* key index (the last one = unnamed) -> memoized (pattern mask, edge) *)
  c_breaks : int array;  (* ascending positions where element edges change *)
  c_elements : edge option Atomic.t array;
    (* one per segment between breaks; the last = beyond them all *)
}

and edge = {
  e_child : closure option;  (* [None]: nothing constrains the child *)
  e_slots : int array;  (* parent slots that read child verdicts … *)
  e_reads : int array array;  (* … and the child slots each conjoins *)
}

type t = {
  nodes : node array;
  shared : bool array;
    (* ≥ 2 incoming plan-graph edges — the memoized subset *)
  root : int;
  closures : closure Id_sets.t Atomic.t;
    (* the stream automaton: requested set -> interned closure *)
}

let node_count p = Array.length p.nodes

(* ---- compilation --------------------------------------------------------- *)

type builder = {
  defs : (string * Schema.t) list;
  assigned : (int, node) Hashtbl.t;
  schema_ids : (Schema.t, int) Hashtbl.t;  (* structural hash-consing *)
  jsl_ids : (Jlogic.Jsl.t, int) Hashtbl.t;  (* the same, for {!of_jsl} *)
  def_ids : (string, int) Hashtbl.t;
  refs : (int, int ref) Hashtbl.t;
  dfas : (Rexp.Syntax.t, Dfa.t) Hashtbl.t;
  mutable count : int;
  budget : Obs.Budget.t;
}

let fresh b =
  let id = b.count in
  b.count <- id + 1;
  Hashtbl.add b.refs id (ref 1);
  id

let bump b id = incr (Hashtbl.find b.refs id)

let dfa b e =
  match Hashtbl.find_opt b.dfas e with
  | Some d -> d
  | None ->
    let d = Dfa.of_syntax e in
    Obs.Metrics.incr "validate.compile.dfas";
    Hashtbl.add b.dfas e d;
    d

let enum_set vs =
  let entry v =
    (* an invalid constant (negative number, duplicate keys) can equal
       no constructible tree; drop it rather than fail the compile *)
    match Tree.of_value v with
    | tree ->
      Some
        { e_hash = Tree.subtree_hash tree Tree.root;
          e_size = Tree.node_count tree;
          e_value = v }
    | exception Value.Invalid _ -> None
  in
  let arr = Array.of_list (List.filter_map entry vs) in
  Array.sort
    (fun a b ->
      if a.e_hash <> b.e_hash then compare a.e_hash b.e_hash
      else compare a.e_size b.e_size)
    arr;
  arr

let type_bit = function
  | Schema.T_object -> 0b0001
  | Schema.T_array -> 0b0010
  | Schema.T_string -> 0b0100
  | Schema.T_number -> 0b1000

(* One plan node per distinct [key] of [table]; the id is reserved
   before the recursive [make], which is what admits reference cycles. *)
let intern_in b table key depth make =
  match Hashtbl.find_opt table key with
  | Some id ->
    bump b id;
    id
  | None ->
    Obs.Budget.check_depth b.budget depth;
    Obs.Budget.burn b.budget 1;
    let id = fresh b in
    Hashtbl.add table key id;
    Hashtbl.replace b.assigned id (make id (depth + 1));
    id

let rec intern b depth (s : Schema.t) =
  intern_in b b.schema_ids s depth (fun _ d -> build b d s)

and intern_def b depth name =
  intern_in b b.def_ids name depth (fun id d ->
      let body = List.assoc name b.defs in
      (* register the body structurally too, so an inline copy of a
         definition shares its plan *)
      if not (Hashtbl.mem b.schema_ids body) then
        Hashtbl.add b.schema_ids body id;
      build b d body)

and build b depth (s : Schema.t) =
  let type_mask = ref 0b1111 in
  let patterns = ref [] in
  let min_bound = ref min_int and max_bound = ref max_int in
  let multiples = ref [] in
  let min_props = ref 0 and max_props = ref max_int in
  let required = ref [] in
  let props = Hashtbl.create 8 in
  let prop_lists = ref [] in
  let pattern_props = ref [] in
  let additional = ref [] in
  let items = ref None and additional_items = ref None in
  let unique = ref false in
  let enums = ref [] in
  let any_of = ref [] and all_of = ref [] and nots = ref [] in
  List.iter
    (fun c ->
      match c with
      | Schema.C_type ty -> type_mask := !type_mask land type_bit ty
      | Schema.C_pattern e -> patterns := dfa b e :: !patterns
      | Schema.C_minimum i -> if i > !min_bound then min_bound := i
      | Schema.C_maximum i -> if i < !max_bound then max_bound := i
      | Schema.C_multiple_of i -> multiples := i :: !multiples
      | Schema.C_min_properties i -> if i > !min_props then min_props := i
      | Schema.C_max_properties i -> if i < !max_props then max_props := i
      | Schema.C_required ks -> required := List.rev_append ks !required
      | Schema.C_properties kvs ->
        List.iter
          (fun (k, ss) -> prop_lists := (k, intern b depth ss) :: !prop_lists)
          kvs
      | Schema.C_pattern_properties kvs ->
        List.iter
          (fun (e, ss) ->
            pattern_props := (dfa b e, intern b depth ss) :: !pattern_props)
          kvs
      | Schema.C_additional_properties ss ->
        additional := intern b depth ss :: !additional
      | Schema.C_items ss ->
        items := Some (Array.of_list (List.map (intern b depth) ss))
      | Schema.C_additional_items ss ->
        additional_items := Some (intern b depth ss)
      | Schema.C_unique_items -> unique := true
      | Schema.C_enum vs -> enums := enum_set vs :: !enums
      | Schema.C_any_of ss ->
        any_of := Array.of_list (List.map (intern b depth) ss) :: !any_of
      | Schema.C_all_of ss ->
        all_of := List.rev_append (List.map (intern b depth) ss) !all_of
      | Schema.C_not ss -> nots := intern b depth ss :: !nots
      | Schema.C_ref r -> all_of := intern_def b depth r :: !all_of)
    s;
  (* key-dispatch: every plan listed for a key applies (duplicate
     [properties] entries conjoin, exactly as the interpreter's
     pair-by-pair sweep does) *)
  List.iter
    (fun (k, id) ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt props k) in
      Hashtbl.replace props k (id :: prev))
    !prop_lists;
  let props_arr = Hashtbl.create (Hashtbl.length props) in
  Hashtbl.iter (fun k ids -> Hashtbl.replace props_arr k (Array.of_list ids)) props;
  let tuple = Option.value ~default:[||] !items in
  let n = Array.length tuple in
  let beyond =
    match !additional_items with Some a -> [| (n, max_int, a) |] | None -> [||]
  in
  { type_mask = !type_mask;
    patterns = Array.of_list !patterns;
    min_bound = !min_bound;
    max_bound = !max_bound;
    multiples = Array.of_list !multiples;
    min_props = !min_props;
    max_props = !max_props;
    required = Array.of_list (List.sort_uniq String.compare !required);
    props = props_arr;
    pattern_props = Array.of_list (List.rev !pattern_props);
    additional = Array.of_list !additional;
    min_items = n;
    (* §5.1: [items] without [additionalItems] allows nothing beyond *)
    max_items = (if Option.is_some !items && beyond = [||] then n else max_int);
    positions = Array.append (Array.mapi (fun k id -> (k, k, id)) tuple) beyond;
    unique = !unique;
    enums = Array.of_list !enums;
    any_of = Array.of_list !any_of;
    all_of = Array.of_list !all_of;
    nots = Array.of_list !nots }

(* JSL lowers straight into plan nodes, not through [Of_jsl.schema]: a
   position range or a child count is one node field here, where the
   Table 1 fragment needs an [items] list as long as the index. *)
let blank =
  { type_mask = 0b1111; patterns = [||]; min_bound = min_int;
    max_bound = max_int; multiples = [||]; min_props = 0;
    max_props = max_int; required = [||]; props = Hashtbl.create 1;
    pattern_props = [||]; additional = [||]; min_items = 0;
    max_items = max_int; positions = [||]; unique = false; enums = [||];
    any_of = [||]; all_of = [||]; nots = [||] }

let rec intern_jsl b depth (f : Jlogic.Jsl.t) =
  intern_in b b.jsl_ids f depth (fun _ d -> jsl_node b d f)

and jsl_node b depth (f : Jlogic.Jsl.t) =
  let sub = intern_jsl b depth in
  match f with
  | True -> blank
  | Not g -> { blank with nots = [| sub g |] }
  | And (x, y) -> { blank with all_of = [| sub x; sub y |] }
  | Or (x, y) -> { blank with any_of = [| [| sub x; sub y |] |] }
  | Var v ->
    invalid_arg ("Jschema.Validate.Plan.of_jsl: free recursion symbol $" ^ v)
  | Box_keys (e, g) -> { blank with pattern_props = [| (dfa b e, sub g) |] }
  | Dia_keys (e, g) ->
    (* ◇ϕ = ¬□¬ϕ, and ◇ also rules out the kinds □ admits vacuously *)
    { blank with type_mask = 0b0001; nots = [| sub (Box_keys (e, Not g)) |] }
  | Dia_range (i, j, g) ->
    { blank with
      type_mask = 0b0010;
      nots = [| sub (Box_range (i, j, Not g)) |] }
  | Box_range (i, j, g) ->
    let hi = Option.value ~default:max_int j in
    if i < 0 || hi < 0 then
      invalid_arg "Jschema.Validate.Plan.of_jsl: negative array position";
    { blank with positions = [| (i, hi, sub g) |] }
  | Test (Min_ch i) when i > 0 ->
    (* strings and numbers have no children *)
    { blank with type_mask = 0b0011; min_props = i; min_items = i }
  | Test (Max_ch i) -> { blank with max_props = i; max_items = i }
  | Test nt -> build b depth (Of_jsl.node_test nt)

let builder defs budget =
  { defs;
    assigned = Hashtbl.create 64;
    schema_ids = Hashtbl.create 64;
    jsl_ids = Hashtbl.create 64;
    def_ids = Hashtbl.create 16;
    refs = Hashtbl.create 64;
    dfas = Hashtbl.create 16;
    count = 0;
    budget }

let finish b root =
  let nodes = Array.init b.count (fun i -> Hashtbl.find b.assigned i) in
  let shared = Array.init b.count (fun i -> !(Hashtbl.find b.refs i) >= 2) in
  Obs.Metrics.add "validate.plan.nodes" b.count;
  { nodes; shared; root; closures = Atomic.make Id_sets.empty }

let compile ?(budget = Obs.Budget.unlimited) (doc : Schema.document) =
  (match Schema.well_formed doc with
  | Ok () -> ()
  | Error m -> invalid_arg ("Jschema.Validate.Plan.compile: " ^ m));
  Obs.Metrics.span "validate.compile" @@ fun () ->
  let b = builder doc.definitions budget in
  finish b (intern b 0 doc.root)

let of_jsl f =
  Obs.Metrics.span "validate.compile" @@ fun () ->
  let b = builder [] Obs.Budget.unlimited in
  finish b (intern_jsl b 0 f)

(* ---- execution over trees ------------------------------------------------ *)

type state = { budget : Obs.Budget.t; memo : (int, bool) Hashtbl.t }

let enum_matches t n entries =
  let len = Array.length entries in
  len > 0
  &&
  let h = Tree.subtree_hash t n and sz = Tree.size t n in
  (* first index with (e_hash, e_size) >= (h, sz) *)
  let lo = ref 0 and hi = ref len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let e = entries.(mid) in
    if e.e_hash < h || (e.e_hash = h && e.e_size < sz) then lo := mid + 1
    else hi := mid
  done;
  let rec scan i =
    i < len
    &&
    let e = entries.(i) in
    e.e_hash = h && e.e_size = sz
    && (Tree.equal_to_value t n e.e_value || scan (i + 1))
  in
  scan !lo

let rec exec p st t n id depth =
  if p.shared.(id) then begin
    let key = (n * Array.length p.nodes) + id in
    match Hashtbl.find_opt st.memo key with
    | Some cached ->
      Obs.Metrics.incr "validate.memo.hit";
      cached
    | None ->
      let b = compute p st t n id depth in
      Hashtbl.add st.memo key b;
      b
  end
  else compute p st t n id depth

and every p st t n plans depth =
  Array.for_all (fun pid -> exec p st t n pid depth) plans

and compute p st t n id depth =
  Obs.Budget.check_depth st.budget depth;
  Obs.Budget.burn st.budget 1;
  let d = depth + 1 in
  let nd = p.nodes.(id) in
  (match Tree.kind t n with
  | Tree.Kobj -> nd.type_mask land 0b0001 <> 0 && obj_ok p st t n d nd
  | Tree.Karr -> nd.type_mask land 0b0010 <> 0 && arr_ok p st t n d nd
  | Tree.Kstr s ->
    nd.type_mask land 0b0100 <> 0
    && Array.for_all (fun dfa -> Dfa.accepts dfa s) nd.patterns
  | Tree.Kint v ->
    nd.type_mask land 0b1000 <> 0
    && v >= nd.min_bound && v <= nd.max_bound
    && Array.for_all (fun i -> i <> 0 && v mod i = 0) nd.multiples)
  && Array.for_all (enum_matches t n) nd.enums
  && Array.for_all
       (fun group -> Array.exists (fun pid -> exec p st t n pid d) group)
       nd.any_of
  && every p st t n nd.all_of d
  && Array.for_all (fun pid -> not (exec p st t n pid d)) nd.nots

and obj_ok p st t n d nd =
  let keys = Tree.obj_keys t n and kids = Tree.child_ids t n in
  let arity = Array.length kids in
  arity >= nd.min_props && arity <= nd.max_props
  && Array.for_all (fun k -> Tree.lookup t n k <> None) nd.required
  &&
  (* one sweep over the members: key dispatch, pattern dispatch and
     additionalProperties coverage together *)
  let n_pats = Array.length nd.pattern_props in
  let member_ok k c =
    let plans = Hashtbl.find_opt nd.props k in
    (match plans with None -> true | Some ps -> every p st t c ps d)
    &&
    let rec pats j matched =
      if j >= n_pats then
        (* uncovered keys fall to additionalProperties (all of them) *)
        matched || plans <> None
        || Array.length nd.additional = 0
        || every p st t c nd.additional d
      else
        let re, pid = nd.pattern_props.(j) in
        if Dfa.accepts re k then exec p st t c pid d && pats (j + 1) true
        else pats (j + 1) matched
    in
    pats 0 false
  in
  let rec members i =
    i >= arity || (member_ok keys.(i) kids.(i) && members (i + 1))
  in
  members 0

and arr_ok p st t n d nd =
  let kids = Tree.child_ids t n in
  let len = Array.length kids in
  len >= nd.min_items
  && Array.for_all
       (fun (lo, hi, pid) ->
         let rec from i =
           i > hi || i >= len || (exec p st t kids.(i) pid d && from (i + 1))
         in
         from lo)
       nd.positions
  && len <= nd.max_items
  && ((not nd.unique) || Jlogic.Jsl.check_unique t n)

let run_tree ?(budget = Obs.Budget.unlimited) p t =
  Obs.Metrics.incr "validate.plan.runs";
  let st = { budget; memo = Hashtbl.create 64 } in
  exec p st t Tree.root p.root 0

let run ?budget p v = run_tree ?budget p (Tree.of_value ?budget v)

(* ---- execution over the token stream ------------------------------------- *)

(* The stream executor is a closure automaton that lives with the plan.
   A state is the same-node closure of a requested plan-id set:
   everything reachable through [anyOf]/[allOf]/[not] edges, which all
   constrain the {e same} value (property/item edges descend to children
   and are dispatched per member instead).  [Schema.well_formed] rejects
   non-modal reference cycles, so the closure is acyclic for every
   compilable document; the cycle flag is kept as a defensive fallback
   (a cyclic closure spills, reproducing [run_tree]'s divergence
   behavior instead of inventing a third semantics).  Ids are stored
   children-first (post-order), so one ascending sweep over a slot array
   combines per-slot verdicts with every same-node dependency already
   resolved.

   A transition depends only on plan data: a member's on which named
   key it carries (if any) and which [patternProperties] regexes its
   key matches, an element's on the segment of positions it falls in
   (cut where some position range starts or ends, so every position
   past the longest [items] shares one edge).  Closures are interned per
   requested set and edges memoized on first use, both published with a
   compare-and-set: domains sharing the plan share the automaton without
   locks, and since every entry is a deterministic function of the plan,
   a lost race adopts the winner's equal value.  Only the winner counts
   ([validate.stream.closures], [validate.stream.edges]), so totals do
   not depend on the number of domains.

   The memo is bounded by the plan: per closure, one edge per position
   segment, and per key index (named keys plus one for unnamed) at most
   [mask_memo] pattern masks.
   Members past that bound, or of closures with more distinct patterns
   than an int mask holds, compute their edge afresh — correct, just
   slower. *)

let mask_memo = 16

let build_closure p requested =
  let slot = Hashtbl.create 8 in
  let order = ref [] in
  let count = ref 0 in
  let active = Hashtbl.create 8 in
  let cyclic = ref false in
  let enum = ref false and unique = ref false in
  let rec go id =
    if Hashtbl.mem active id then cyclic := true
    else if not (Hashtbl.mem slot id) then begin
      Hashtbl.add active id ();
      let nd = p.nodes.(id) in
      if Array.length nd.enums > 0 then enum := true;
      if nd.unique then unique := true;
      Array.iter (Array.iter go) nd.any_of;
      Array.iter go nd.all_of;
      Array.iter go nd.nots;
      Hashtbl.remove active id;
      Hashtbl.add slot id !count;
      incr count;
      order := id :: !order
    end
  in
  List.iter go requested;
  let ids = Array.of_list (List.rev !order) in
  let nodes = Array.map (fun id -> p.nodes.(id)) ids in
  let slots = Array.map (Hashtbl.find slot) in
  (* member dispatch: every key some slot names or requires gets an
     index; all other keys share the last one *)
  let keys = Keys.create 16 and names = ref [] in
  let key_index k =
    match Keys.find_opt keys k with
    | Some i -> i
    | None ->
      let i = Keys.length keys in
      Keys.add keys k i;
      names := k :: !names;
      i
  in
  Array.iter
    (fun nd ->
      Hashtbl.iter (fun k _ -> ignore (key_index k)) nd.props;
      Array.iter (fun k -> ignore (key_index k)) nd.required)
    nodes;
  let key_names = Array.of_list (List.rev !names) in
  let key_required = Array.make (Array.length key_names) [] in
  Array.iteri
    (fun s nd ->
      Array.iter
        (fun k ->
          let i = Keys.find keys k in
          key_required.(i) <- s :: key_required.(i))
        nd.required)
    nodes;
  let patterns =
    Array.fold_left
      (fun acc nd ->
        Array.fold_left
          (fun acc (re, _) -> if List.memq re acc then acc else re :: acc)
          acc nd.pattern_props)
      [] nodes
    |> List.rev |> Array.of_list
  in
  let breaks =
    Array.fold_left
      (fun acc nd ->
        Array.fold_left
          (fun acc (lo, hi, _) ->
            lo :: (if hi < max_int then hi + 1 :: acc else acc))
          acc nd.positions)
      [] nodes
    |> List.filter (fun k -> k > 0)
    |> List.sort_uniq Int.compare |> Array.of_list
  in
  let required = Array.map (fun nd -> Array.length nd.required) nodes in
  let requested = Array.of_list requested in
  { c_ids = ids;
    c_cyclic = !cyclic;
    c_enum = !enum;
    c_unique = !unique;
    c_requested = requested;
    c_requested_slots = slots requested;
    c_slot_of = slot;
    c_any_of = Array.map (fun nd -> Array.map slots nd.any_of) nodes;
    c_all_of = Array.map (fun nd -> slots nd.all_of) nodes;
    c_nots = Array.map (fun nd -> slots nd.nots) nodes;
    c_keys = keys;
    c_key_names = key_names;
    c_key_required =
      Array.map (fun l -> Array.of_list (List.rev l)) key_required;
    c_required = required;
    c_requires = Array.exists (fun r -> r > 0) required;
    c_patterns = patterns;
    c_masked = Array.length patterns < Sys.int_size;
    c_members =
      Array.init (Array.length key_names + 1) (fun _ -> Atomic.make []);
    c_breaks = breaks;
    c_elements =
      Array.init (Array.length breaks + 1) (fun _ -> Atomic.make None) }

let intern_closure p requested =
  match Id_sets.find_opt requested (Atomic.get p.closures) with
  | Some c -> c
  | None ->
    let c = build_closure p requested in
    let rec publish () =
      let table = Atomic.get p.closures in
      match Id_sets.find_opt requested table with
      | Some winner -> winner
      | None ->
        if Atomic.compare_and_set p.closures table
             (Id_sets.add requested c table)
        then begin
          Obs.Metrics.incr "validate.stream.closures";
          c
        end
        else publish ()
    in
    publish ()

(* An edge given each slot's child obligations (plan ids). *)
let edge_of p per_slot =
  match List.sort_uniq Int.compare (List.concat (Array.to_list per_slot)) with
  | [] -> { e_child = None; e_slots = [||]; e_reads = [||] }
  | requested ->
    let child = intern_closure p requested in
    let reading =
      List.filter
        (fun s -> per_slot.(s) <> [])
        (List.init (Array.length per_slot) Fun.id)
    in
    let reads s =
      Array.of_list (List.map (Hashtbl.find child.c_slot_of) per_slot.(s))
    in
    { e_child = Some child;
      e_slots = Array.of_list reading;
      e_reads = Array.of_list (List.map reads reading) }

(* every plan listed for a named key applies, every matching
   [patternProperties] plan applies, and uncovered keys fall to all
   [additionalProperties] plans *)
let member_edge_of p c kidx matched =
  let per_slot =
    Array.map
      (fun id ->
        let nd = p.nodes.(id) in
        let listed =
          if kidx < Array.length c.c_key_names then
            Hashtbl.find_opt nd.props c.c_key_names.(kidx)
          else None
        in
        let named = ref (listed <> None) in
        let acc =
          ref (match listed with Some ps -> Array.to_list ps | None -> [])
        in
        Array.iter
          (fun (re, pid) ->
            let rec index j =
              if c.c_patterns.(j) == re then j else index (j + 1)
            in
            if matched (index 0) then begin
              named := true;
              acc := pid :: !acc
            end)
          nd.pattern_props;
        if !named then !acc else Array.to_list nd.additional)
      c.c_ids
  in
  edge_of p per_slot

(* the element at position [k]; array lengths are checked when the
   array closes *)
let element_edge_of p c k =
  edge_of p
    (Array.map
       (fun id ->
         Array.fold_right
           (fun (lo, hi, pid) acc ->
             if lo <= k && k <= hi then pid :: acc else acc)
           p.nodes.(id).positions [])
       c.c_ids)

let rec memo_find mask = function
  | [] -> raise Not_found
  | (m, e) :: rest -> if m = mask then e else memo_find mask rest

let member_edge p c kidx mask =
  let cell = c.c_members.(kidx) in
  match memo_find mask (Atomic.get cell) with
  | e -> e
  | exception Not_found ->
    let e = member_edge_of p c kidx (fun j -> mask land (1 lsl j) <> 0) in
    let rec publish () =
      let memo = Atomic.get cell in
      match memo_find mask memo with
      | winner -> winner
      | exception Not_found ->
        if List.length memo >= mask_memo then e
        else if Atomic.compare_and_set cell memo ((mask, e) :: memo) then
        begin
          Obs.Metrics.incr "validate.stream.edges";
          e
        end
        else publish ()
    in
    publish ()

(* the element at position [k], in segment [seg] *)
let element_edge p c seg k =
  let cell = c.c_elements.(seg) in
  match Atomic.get cell with
  | Some e -> e
  | None ->
    let e = element_edge_of p c k in
    if Atomic.compare_and_set cell None (Some e) then begin
      Obs.Metrics.incr "validate.stream.edges";
      e
    end
    else Option.get (Atomic.get cell)

(* Per-value checks as index loops over plan arrays: nothing here
   allocates.  Scalar [enum] membership is decided directly on the
   token's atom — the scalar cases never spill.  Candidate values come
   from [enum_set], which dropped anything not constructible as a tree,
   exactly like the tree-path comparison would. *)
let rec multiples_ok v ms i =
  i >= Array.length ms
  || (let m = ms.(i) in
      m <> 0 && v mod m = 0 && multiples_ok v ms (i + 1))

let rec patterns_ok s dfas i =
  i >= Array.length dfas
  || (Dfa.accepts dfas.(i) s && patterns_ok s dfas (i + 1))

let rec enum_has_int v entries i =
  i < Array.length entries
  && ((match entries.(i).e_value with Value.Num m -> m = v | _ -> false)
     || enum_has_int v entries (i + 1))

let rec enum_has_str s entries i =
  i < Array.length entries
  && ((match entries.(i).e_value with
      | Value.Str t -> String.equal t s
      | _ -> false)
     || enum_has_str s entries (i + 1))

let rec enums_int v sets i =
  i >= Array.length sets
  || (enum_has_int v sets.(i) 0 && enums_int v sets (i + 1))

let rec enums_str s sets i =
  i >= Array.length sets
  || (enum_has_str s sets.(i) 0 && enums_str s sets (i + 1))

let rec all_slots v g i =
  i >= Array.length g || (v.(g.(i)) && all_slots v g (i + 1))

let rec any_slot v g i =
  i < Array.length g && (v.(g.(i)) || any_slot v g (i + 1))

let rec no_slot v g i =
  i >= Array.length g || ((not v.(g.(i))) && no_slot v g (i + 1))

let rec groups_ok v gs i =
  i >= Array.length gs || (any_slot v gs.(i) 0 && groups_ok v gs (i + 1))

let scalar_int p c v x =
  for s = 0 to Array.length v - 1 do
    let nd = p.nodes.(c.c_ids.(s)) in
    v.(s) <-
      nd.type_mask land 0b1000 <> 0
      && x >= nd.min_bound && x <= nd.max_bound
      && multiples_ok x nd.multiples 0
      && enums_int x nd.enums 0
  done

let scalar_str p c v x =
  for s = 0 to Array.length v - 1 do
    let nd = p.nodes.(c.c_ids.(s)) in
    v.(s) <-
      nd.type_mask land 0b0100 <> 0
      && patterns_ok x nd.patterns 0
      && enums_str x nd.enums 0
  done

(* across the same-node graph, children first, in place *)
let combine c v =
  for s = 0 to Array.length v - 1 do
    if v.(s) then
      v.(s) <-
        groups_ok v c.c_any_of.(s) 0
        && all_slots v c.c_all_of.(s) 0
        && no_slot v c.c_nots.(s) 0
  done

type stream_state = {
  s_budget : Obs.Budget.t;
  s_mode : [ `Strict | `Lenient ];
  s_lx : Lexer.t;
  s_keys : Parser.key_sets;  (* duplicate-key sets of the open objects *)
  mutable s_values : int;  (* values decided in the stream, not skipped *)
  mutable s_live : int;  (* closure ids summed over the open frames *)
  mutable s_peak : int;  (* high-water mark of [s_live] *)
}

(* One streamed value against closure [c].  Returns one verdict per
   closure slot (a spill fills just the requested slots, which is all a
   caller ever reads).  The token handling mirrors [Tree.of_string_exn]
   member for member, so malformed documents render byte-identical
   errors through either engine; fuel is charged per streamed value
   ([1] parse unit plus one per closure slot), per skipped value ([1])
   and per spilled value (the materialization's [2] plus [run_tree]'s
   per-(node, plan) unit), and the depth ceiling follows document
   nesting with the same positions as the parser. *)
let rec stream_value st p c depth =
  let n = Array.length c.c_ids in
  let pos, tok = Lexer.peek st.s_lx in
  Parser.guard ~units:(1 + n) st.s_budget pos depth;
  Obs.Metrics.incr "parse.values";
  st.s_values <- st.s_values + 1;
  let must_spill =
    c.c_cyclic
    ||
    match tok with
    | Lexer.Lbrace -> c.c_enum
    | Lexer.Lbracket -> c.c_enum || c.c_unique
    | _ -> false
  in
  if must_spill then spill st p c depth
  else begin
    st.s_live <- st.s_live + n;
    if st.s_live > st.s_peak then st.s_peak <- st.s_live;
    let v = Array.make n true in
    let pos, tok = Lexer.next st.s_lx in
    (match tok with
    | Lexer.Lbrace -> stream_obj st p c depth v
    | Lexer.Lbracket -> stream_arr st p c depth v
    | Lexer.Nat x -> scalar_int p c v x
    | Lexer.String x -> scalar_str p c v x
    | Lexer.Neg_int _ | Lexer.Float _ | Lexer.True | Lexer.False
    | Lexer.Null -> (
      match Parser.literal_atom st.s_mode pos tok with
      | Parser.Int x -> scalar_int p c v x
      | Parser.Str x -> scalar_str p c v x)
    | Lexer.Rbrace | Lexer.Rbracket | Lexer.Colon | Lexer.Comma | Lexer.Eof
      ->
      Parser.unexpected pos tok "a JSON value");
    combine c v;
    st.s_live <- st.s_live - n;
    v
  end

(* A member/element through its edge: the child is streamed against the
   edge's closure (or skipped outright when nothing constrains it), and
   each reading slot conjoins its child verdicts. *)
and follow st p depth v e =
  match e.e_child with
  | None ->
    let before = Lexer.offset st.s_lx in
    Parser.skip_value st.s_mode st.s_budget st.s_lx (depth + 1);
    Obs.Metrics.add "validate.stream.skipped_bytes"
      (Lexer.offset st.s_lx - before)
  | Some child ->
    let cv = stream_value st p child (depth + 1) in
    let slots = e.e_slots and reads = e.e_reads in
    for j = 0 to Array.length slots - 1 do
      let s = slots.(j) in
      if v.(s) then v.(s) <- all_slots cv reads.(j) 0
    done

and stream_member st p c depth v counts key =
  let unnamed = Array.length c.c_key_names in
  let kidx =
    match Keys.find c.c_keys key with i -> i | exception Not_found -> unnamed
  in
  if kidx < unnamed then begin
    let slots = c.c_key_required.(kidx) in
    for j = 0 to Array.length slots - 1 do
      counts.(slots.(j)) <- counts.(slots.(j)) + 1
    done
  end;
  let pats = c.c_patterns in
  let e =
    if c.c_masked then begin
      let mask = ref 0 in
      for j = 0 to Array.length pats - 1 do
        if Dfa.accepts pats.(j) key then mask := !mask lor (1 lsl j)
      done;
      member_edge p c kidx !mask
    end
    else member_edge_of p c kidx (fun j -> Dfa.accepts pats.(j) key)
  in
  follow st p depth v e

and stream_obj st p c depth v =
  let lx = st.s_lx in
  let seen = Parser.open_object st.s_keys in
  let counts = if c.c_requires then Array.make (Array.length v) 0 else [||] in
  let arity = ref 0 in
  (match Lexer.peek lx with
  | _, Lexer.Rbrace -> ignore (Lexer.next lx)
  | _ ->
    let more = ref true in
    while !more do
      let pos, tok = Lexer.next lx in
      match tok with
      | Lexer.String key -> (
        if Keys.mem seen key then
          Parser.fail pos "duplicate object key %S" key;
        Keys.add seen key ();
        (match Lexer.next lx with
        | _, Lexer.Colon -> ()
        | pos, tok -> Parser.unexpected pos tok "':'");
        incr arity;
        stream_member st p c depth v counts key;
        match Lexer.next lx with
        | _, Lexer.Comma -> ()
        | _, Lexer.Rbrace -> more := false
        | pos, tok -> Parser.unexpected pos tok "',' or '}'")
      | _ -> Parser.unexpected pos tok "a string key"
    done);
  Parser.close_object st.s_keys;
  for s = 0 to Array.length v - 1 do
    let nd = p.nodes.(c.c_ids.(s)) in
    v.(s) <-
      v.(s)
      && nd.type_mask land 0b0001 <> 0
      && !arity >= nd.min_props && !arity <= nd.max_props
      && (c.c_required.(s) = 0 || counts.(s) = c.c_required.(s))
  done

and stream_arr st p c depth v =
  let lx = st.s_lx in
  let len = ref 0 and seg = ref 0 in
  let breaks = c.c_breaks in
  (match Lexer.peek lx with
  | _, Lexer.Rbracket -> ignore (Lexer.next lx)
  | _ ->
    let more = ref true in
    while !more do
      while !seg < Array.length breaks && breaks.(!seg) <= !len do
        incr seg
      done;
      follow st p depth v (element_edge p c !seg !len);
      incr len;
      match Lexer.next lx with
      | _, Lexer.Comma -> ()
      | _, Lexer.Rbracket -> more := false
      | pos, tok -> Parser.unexpected pos tok "',' or ']'"
    done);
  for s = 0 to Array.length v - 1 do
    let nd = p.nodes.(c.c_ids.(s)) in
    v.(s) <-
      v.(s)
      && nd.type_mask land 0b0010 <> 0
      && !len >= nd.min_items && !len <= nd.max_items
  done

(* Materialize exactly one subtree through the column builder and fall
   back to [run_tree] semantics on it — the bounded escape hatch for
   the keywords that genuinely need the whole subtree ([uniqueItems],
   [enum] deep equality) or a cyclic closure. *)
and spill st p c depth =
  Obs.Metrics.incr "validate.stream.spills";
  let t =
    Tree.of_lexer_exn ~mode:st.s_mode ~base_depth:depth ~budget:st.s_budget
      st.s_lx
  in
  let est = { budget = st.s_budget; memo = Hashtbl.create 8 } in
  let v = Array.make (Array.length c.c_ids) false in
  Array.iteri
    (fun k id -> v.(c.c_requested_slots.(k)) <- exec p est t Tree.root id depth)
    c.c_requested;
  v

type stream_stats = { values : int; peak_obligations : int }

let stream_run budget mode p lx =
  Obs.Metrics.incr "validate.stream.runs";
  let st =
    { s_budget = budget;
      s_mode = mode;
      s_lx = lx;
      s_keys = Parser.key_sets ();
      s_values = 0;
      s_live = 0;
      s_peak = 0 }
  in
  let c = intern_closure p [ p.root ] in
  let v = stream_value st p c 0 in
  let pos, tok = Lexer.next lx in
  if tok <> Lexer.Eof then Parser.unexpected pos tok "end of input";
  (v.(c.c_requested_slots.(0)), st)

let run_lexer ?(budget = Obs.Budget.unlimited) ?(mode = `Strict) p lx =
  fst (stream_run budget mode p lx)

let run_stream ?budget ?mode p input =
  run_lexer ?budget ?mode p (Lexer.create input)

let run_stream_stats p input =
  let ok, st = stream_run Obs.Budget.unlimited `Strict p (Lexer.create input) in
  (ok, { values = st.s_values; peak_obligations = st.s_peak })
