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
     [items]/[additionalItems] conjunct wins, {e all}
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
  items : int array option;  (* the last [items] conjunct *)
  additional_items : int option;  (* the last [additionalItems] *)
  unique : bool;
  enums : enum_entry array array;  (* one sorted set per [enum] conjunct *)
  any_of : int array array;  (* one disjunction group per [anyOf] *)
  all_of : int array;  (* [allOf] members and resolved [$ref] targets *)
  nots : int array;
}

type t = {
  nodes : node array;
  shared : bool array;
    (* ≥ 2 incoming plan-graph edges — the memoized subset *)
  root : int;
}

let node_count p = Array.length p.nodes

(* ---- compilation --------------------------------------------------------- *)

type builder = {
  defs : (string * Schema.t) list;
  assigned : (int, node) Hashtbl.t;
  schema_ids : (Schema.t, int) Hashtbl.t;  (* structural hash-consing *)
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

let rec intern b depth (s : Schema.t) =
  match Hashtbl.find_opt b.schema_ids s with
  | Some id ->
    bump b id;
    id
  | None ->
    Obs.Budget.check_depth b.budget depth;
    Obs.Budget.burn b.budget 1;
    let id = fresh b in
    Hashtbl.add b.schema_ids s id;
    Hashtbl.replace b.assigned id (build b (depth + 1) s);
    id

and intern_def b depth name =
  match Hashtbl.find_opt b.def_ids name with
  | Some id ->
    bump b id;
    id
  | None ->
    Obs.Budget.check_depth b.budget depth;
    Obs.Budget.burn b.budget 1;
    let id = fresh b in
    Hashtbl.add b.def_ids name id;
    let body = List.assoc name b.defs in
    (* register the body structurally too, so an inline copy of a
       definition shares its plan; ids are reserved before the
       recursive build, which is what admits reference cycles *)
    if not (Hashtbl.mem b.schema_ids body) then
      Hashtbl.add b.schema_ids body id;
    Hashtbl.replace b.assigned id (build b (depth + 1) body);
    id

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
    items = !items;
    additional_items = !additional_items;
    unique = !unique;
    enums = Array.of_list !enums;
    any_of = Array.of_list !any_of;
    all_of = Array.of_list !all_of;
    nots = Array.of_list !nots }

let compile ?(budget = Obs.Budget.unlimited) (doc : Schema.document) =
  (match Schema.well_formed doc with
  | Ok () -> ()
  | Error m -> invalid_arg ("Jschema.Validate.Plan.compile: " ^ m));
  Obs.Metrics.span "validate.compile" @@ fun () ->
  let b =
    { defs = doc.definitions;
      assigned = Hashtbl.create 64;
      schema_ids = Hashtbl.create 64;
      def_ids = Hashtbl.create 16;
      refs = Hashtbl.create 64;
      dfas = Hashtbl.create 16;
      count = 0;
      budget }
  in
  let root = intern b 0 doc.root in
  let nodes = Array.init b.count (fun i -> Hashtbl.find b.assigned i) in
  let shared = Array.init b.count (fun i -> !(Hashtbl.find b.refs i) >= 2) in
  Obs.Metrics.add "validate.plan.nodes" b.count;
  { nodes; shared; root }

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
  (match (nd.items, nd.additional_items) with
  | None, None -> true
  | None, Some a -> Array.for_all (fun c -> exec p st t c a d) kids
  | Some ss, add ->
    let k = Array.length ss in
    len >= k (* §5.1: the positions must exist *)
    && (let rec positions i =
          i >= k || (exec p st t kids.(i) ss.(i) d && positions (i + 1))
        in
        positions 0)
    && (len = k
       ||
       match add with
       | None -> false (* …and without additionalItems, nothing beyond *)
       | Some a ->
         let rec rest i =
           i >= len || (exec p st t kids.(i) a d && rest (i + 1))
         in
         rest k))
  && ((not nd.unique) || Jlogic.Jsl.check_unique t n)

let run_tree ?(budget = Obs.Budget.unlimited) p t =
  Obs.Metrics.incr "validate.plan.runs";
  let st = { budget; memo = Hashtbl.create 64 } in
  exec p st t Tree.root p.root 0

let run ?budget p v = run_tree ?budget p (Tree.of_value ?budget v)

(* ---- execution over the token stream ------------------------------------- *)

(* Same-node closure of a requested plan-id set: everything reachable
   through [anyOf]/[allOf]/[not] edges, which all constrain the {e
   same} value (property/item edges descend to children and are
   dispatched per member instead).  [Schema.well_formed] rejects
   non-modal reference cycles, so the closure is acyclic for every
   compilable document; the cycle flag is kept as a defensive fallback
   (a cyclic closure spills, reproducing [run_tree]'s divergence
   behavior instead of inventing a third semantics).  Ids are stored
   children-first (post-order), so one ascending sweep combines per-id
   verdicts with every same-node dependency already resolved. *)
type closure = {
  c_ids : int array;  (* post-order: same-node dependencies first *)
  c_slot : (int, int) Hashtbl.t;  (* plan id -> index into [c_ids] *)
  c_enum : bool;  (* some closure node carries [enum] *)
  c_unique : bool;  (* some closure node carries [uniqueItems] *)
  c_cyclic : bool;
}

let closure_of p requested =
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
  { c_ids = Array.of_list (List.rev !order);
    c_slot = slot;
    c_enum = !enum;
    c_unique = !unique;
    c_cyclic = !cyclic }

type stream_state = {
  s_budget : Obs.Budget.t;
  s_mode : [ `Strict | `Lenient ];
  s_lx : Lexer.t;
  s_closures : (int list, closure) Hashtbl.t;
    (* closures depend only on the requested set, which repeats for
       every element of a homogeneous array — cache them per run *)
  mutable s_values : int;  (* values decided in the stream, not skipped *)
  mutable s_live : int;  (* closure ids summed over the open frames *)
  mutable s_peak : int;  (* high-water mark of [s_live] *)
}

let closure st p requested =
  match Hashtbl.find_opt st.s_closures requested with
  | Some c -> c
  | None ->
    let c = closure_of p requested in
    Hashtbl.add st.s_closures requested c;
    c

(* Scalar [enum] membership directly on the token's atom — the scalar
   cases never spill.  Candidate values come from [enum_set], which
   dropped anything not constructible as a tree, exactly like the
   tree-path comparison would. *)
let enum_has_int v entries =
  Array.exists
    (fun e -> match e.e_value with Value.Num m -> m = v | _ -> false)
    entries

let enum_has_str s entries =
  Array.exists
    (fun e ->
      match e.e_value with Value.Str t -> String.equal t s | _ -> false)
    entries

(* One streamed value against the plan-id set [requested] (sorted).
   Returns per-id verdicts for the whole same-node closure (spills
   return just [requested], which is all a caller ever reads).  The
   token handling mirrors [Tree.of_string_exn] member for member, so
   malformed documents render byte-identical errors through either
   engine; fuel is charged per streamed value ([1] parse unit plus one
   per active closure node), per skipped value ([1]) and per spilled
   value (the materialization's [2] plus [run_tree]'s per-(node, plan)
   unit), and the depth ceiling follows document nesting with the same
   positions as the parser. *)
let rec stream_value st p requested depth =
  let c = closure st p requested in
  let ids = c.c_ids in
  let n = Array.length ids in
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
  if must_spill then spill st p requested depth
  else begin
    st.s_live <- st.s_live + n;
    if st.s_live > st.s_peak then st.s_peak <- st.s_live;
    let nodes = p.nodes in
    let structural = Array.make n false in
    let scalar_int v =
      for i = 0 to n - 1 do
        let nd = nodes.(ids.(i)) in
        structural.(i) <-
          nd.type_mask land 0b1000 <> 0
          && v >= nd.min_bound && v <= nd.max_bound
          && Array.for_all (fun m -> m <> 0 && v mod m = 0) nd.multiples
          && Array.for_all (enum_has_int v) nd.enums
      done
    in
    let scalar_str s =
      for i = 0 to n - 1 do
        let nd = nodes.(ids.(i)) in
        structural.(i) <-
          nd.type_mask land 0b0100 <> 0
          && Array.for_all (fun dfa -> Dfa.accepts dfa s) nd.patterns
          && Array.for_all (enum_has_str s) nd.enums
      done
    in
    let pos, tok = Lexer.next st.s_lx in
    (match tok with
    | Lexer.Lbrace -> stream_obj st p c depth structural
    | Lexer.Lbracket -> stream_arr st p c depth structural
    | Lexer.Nat v -> scalar_int v
    | Lexer.String s -> scalar_str s
    | Lexer.Neg_int _ | Lexer.Float _ | Lexer.True | Lexer.False
    | Lexer.Null -> (
      match Parser.literal_atom st.s_mode pos tok with
      | Parser.Int v -> scalar_int v
      | Parser.Str s -> scalar_str s)
    | Lexer.Rbrace | Lexer.Rbracket | Lexer.Colon | Lexer.Comma | Lexer.Eof
      ->
      Parser.unexpected pos tok "a JSON value");
    (* combine across the same-node graph, children first *)
    let finals = Array.make n false in
    let fin pid = finals.(Hashtbl.find c.c_slot pid) in
    for i = 0 to n - 1 do
      let nd = nodes.(ids.(i)) in
      finals.(i) <-
        structural.(i)
        && Array.for_all (fun group -> Array.exists fin group) nd.any_of
        && Array.for_all fin nd.all_of
        && Array.for_all (fun pid -> not (fin pid)) nd.nots
    done;
    let tbl = Hashtbl.create (2 * n) in
    Array.iteri (fun i id -> Hashtbl.replace tbl id finals.(i)) ids;
    st.s_live <- st.s_live - n;
    tbl
  end

(* A member/element's child obligations: the union of every closure
   node's dispatch for it is evaluated once ([per_slot] remembers which
   verdicts each closure node then reads back), or skipped outright when
   no active node constrains it. *)
and stream_child st p depth per_slot union union_n ok =
  if union_n = 0 then begin
    let before = Lexer.offset st.s_lx in
    Parser.skip_value st.s_mode st.s_budget st.s_lx (depth + 1);
    Obs.Metrics.add "validate.stream.skipped_bytes"
      (Lexer.offset st.s_lx - before)
  end
  else begin
    let ctbl = stream_value st p (List.sort_uniq compare union) (depth + 1) in
    Array.iteri
      (fun i pids ->
        if ok.(i) then
          ok.(i) <- List.for_all (fun pid -> Hashtbl.find ctbl pid) pids)
      per_slot
  end

and stream_obj st p c depth structural =
  let nodes = p.nodes in
  let ids = c.c_ids in
  let n = Array.length ids in
  let ok = Array.make n true in
  let seen = Hashtbl.create 8 in
  let arity = ref 0 in
  let member key =
    incr arity;
    let union = ref [] and union_n = ref 0 in
    let in_union = Hashtbl.create 8 in
    let add pid =
      if not (Hashtbl.mem in_union pid) then begin
        Hashtbl.add in_union pid ();
        union := pid :: !union;
        incr union_n
      end
    in
    let per_slot = Array.make n [] in
    for i = 0 to n - 1 do
      let nd = nodes.(ids.(i)) in
      let acc = ref [] in
      let named = ref false in
      (match Hashtbl.find_opt nd.props key with
      | Some ps ->
        named := true;
        Array.iter (fun pid -> acc := pid :: !acc) ps
      | None -> ());
      Array.iter
        (fun (re, pid) ->
          if Dfa.accepts re key then begin
            named := true;
            acc := pid :: !acc
          end)
        nd.pattern_props;
      if not !named then Array.iter (fun pid -> acc := pid :: !acc) nd.additional;
      per_slot.(i) <- !acc;
      List.iter add !acc
    done;
    stream_child st p depth per_slot !union !union_n ok
  in
  let rec members () =
    let pos, tok = Lexer.next st.s_lx in
    match tok with
    | Lexer.String key ->
      if Hashtbl.mem seen key then
        Parser.fail pos "duplicate object key %S" key;
      Hashtbl.add seen key ();
      let pos, tok = Lexer.next st.s_lx in
      if tok <> Lexer.Colon then Parser.unexpected pos tok "':'";
      member key;
      let pos, tok = Lexer.next st.s_lx in
      (match tok with
      | Lexer.Comma -> members ()
      | Lexer.Rbrace -> ()
      | _ -> Parser.unexpected pos tok "',' or '}'")
    | _ -> Parser.unexpected pos tok "a string key"
  in
  let _, tok = Lexer.peek st.s_lx in
  if tok = Lexer.Rbrace then ignore (Lexer.next st.s_lx) else members ();
  for i = 0 to n - 1 do
    let nd = nodes.(ids.(i)) in
    structural.(i) <-
      nd.type_mask land 0b0001 <> 0
      && ok.(i)
      && !arity >= nd.min_props && !arity <= nd.max_props
      && Array.for_all (Hashtbl.mem seen) nd.required
  done

and stream_arr st p c depth structural =
  let nodes = p.nodes in
  let ids = c.c_ids in
  let n = Array.length ids in
  let ok = Array.make n true in
  let len = ref 0 in
  let element () =
    let i = !len in
    incr len;
    let union = ref [] and union_n = ref 0 in
    let in_union = Hashtbl.create 8 in
    let add pid =
      if not (Hashtbl.mem in_union pid) then begin
        Hashtbl.add in_union pid ();
        union := pid :: !union;
        incr union_n
      end
    in
    let per_slot = Array.make n [] in
    for s = 0 to n - 1 do
      let nd = nodes.(ids.(s)) in
      let acc = ref [] in
      (match (nd.items, nd.additional_items) with
      | None, None -> ()
      | None, Some a -> acc := [ a ]
      | Some ss, add_items ->
        if i < Array.length ss then acc := [ ss.(i) ]
        else (
          match add_items with
          | None -> ok.(s) <- false (* §5.1: nothing beyond the tuple *)
          | Some a -> acc := [ a ]));
      per_slot.(s) <- !acc;
      List.iter add !acc
    done;
    stream_child st p depth per_slot !union !union_n ok
  in
  let rec elements () =
    element ();
    let pos, tok = Lexer.next st.s_lx in
    match tok with
    | Lexer.Comma -> elements ()
    | Lexer.Rbracket -> ()
    | _ -> Parser.unexpected pos tok "',' or ']'"
  in
  let _, tok = Lexer.peek st.s_lx in
  if tok = Lexer.Rbracket then ignore (Lexer.next st.s_lx) else elements ();
  for s = 0 to n - 1 do
    let nd = nodes.(ids.(s)) in
    let tuple_complete =
      match nd.items with
      | Some ss -> !len >= Array.length ss (* §5.1: positions must exist *)
      | None -> true
    in
    structural.(s) <- nd.type_mask land 0b0010 <> 0 && ok.(s) && tuple_complete
  done

(* Materialize exactly one subtree through the column builder and fall
   back to [run_tree] semantics on it — the bounded escape hatch for
   the keywords that genuinely need the whole subtree ([uniqueItems],
   [enum] deep equality) or a cyclic closure. *)
and spill st p requested depth =
  Obs.Metrics.incr "validate.stream.spills";
  let t =
    Tree.of_lexer_exn ~mode:st.s_mode ~base_depth:depth ~budget:st.s_budget
      st.s_lx
  in
  let est = { budget = st.s_budget; memo = Hashtbl.create 64 } in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun id ->
      if not (Hashtbl.mem tbl id) then
        Hashtbl.replace tbl id (exec p est t Tree.root id depth))
    requested;
  tbl

type stream_stats = { values : int; peak_obligations : int }

let stream_run budget mode p lx =
  Obs.Metrics.incr "validate.stream.runs";
  let st =
    { s_budget = budget;
      s_mode = mode;
      s_lx = lx;
      s_closures = Hashtbl.create 16;
      s_values = 0;
      s_live = 0;
      s_peak = 0 }
  in
  let tbl = stream_value st p [ p.root ] 0 in
  let pos, tok = Lexer.next lx in
  if tok <> Lexer.Eof then Parser.unexpected pos tok "end of input";
  (Hashtbl.find tbl p.root, st)

let run_lexer ?(budget = Obs.Budget.unlimited) ?(mode = `Strict) p lx =
  fst (stream_run budget mode p lx)

let run_stream ?budget ?mode p input =
  run_lexer ?budget ?mode p (Lexer.create input)

let run_stream_stats p input =
  let ok, st = stream_run Obs.Budget.unlimited `Strict p (Lexer.create input) in
  (ok, { values = st.s_values; peak_obligations = st.s_peak })

(* ---- deterministic JSL (the §6 conjecture) ------------------------------- *)

let of_jsl f = compile (Schema.plain (Of_jsl.schema (Jlogic.Jsl.expand_eq f)))
