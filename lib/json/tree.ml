type node = int

type kind =
  | Kobj
  | Karr
  | Kstr of string
  | Kint of int

type edge = Root | Key of string | Pos of int

(* Label index: the edge relations [O] and [A] grouped by label, so
   that backward (pre-image) navigation over one step touches only the
   edges carrying that label instead of sweeping all nodes.  Built
   lazily on first use; every bucket lists nodes in preorder. *)
type label_index = {
  by_key : (string, node array) Hashtbl.t;
      (* key w -> nodes whose incoming edge is [Key w] *)
  by_pos : node array array;
      (* position p -> nodes whose incoming edge is [Pos p];
         length = maximum arity over the tree *)
  arrays : node array;  (* all array nodes *)
}

type t = {
  kinds : kind array;
  child_nodes : node array array;  (* children in document order *)
  child_keys : string array array;  (* keys, empty for non-objects *)
  parents : node array;  (* -1 for the root *)
  edges : edge array;
  sizes : int array;
  slots : int array;  (* key table, see [probe] *)
  (* Columns nobody may read are built on first use, each in one
     sweep over the whole tree (see [force]). *)
  hashes : int array option Atomic.t;
  heights : int array option Atomic.t;
  depths : int array option Atomic.t;
  index : label_index option Atomic.t;
}

let root = 0

(* ---- key table ------------------------------------------------------------ *)

(* One open-addressing table per tree maps (parent, key) to the child
   reached through that member.  A slot is two ints: the tag
   [parent lsl 30 lor String.hash key] — exact on both parts, as the
   hash has 30 bits and a 63-bit int leaves 33 for the parent — and the
   child id, [0] when the slot is empty (the root is nobody's child).
   The key itself is read back from the child's edge, and only when the
   tags agree.  No boxed pair, no polymorphic hash or compare.  The
   slot count is a power of two kept at least twice the member count. *)
let tag p key = (p lsl 30) lor String.hash key

let home tg mask =
  let h = tg * 0x9e3779b97f4a7c1 in
  (h lxor (h lsr 29)) land mask

let key_of_edge = function Key k -> k | Root | Pos _ -> assert false

(* The slot of the member tagged [tg] under [key], or of the empty
   slot ending its probe sequence. *)
let probe slots edges tg key =
  let mask = (Array.length slots / 2) - 1 in
  let rec go i =
    let c = slots.((2 * i) + 1) in
    if
      c = 0
      || slots.(2 * i) = tg
         && match edges.(c) with
            | Key k -> String.equal k key
            | Root | Pos _ -> false
    then i
    else go ((i + 1) land mask)
  in
  go (home tg mask)

let rec free_slot slots mask i =
  if slots.((2 * i) + 1) = 0 then i
  else free_slot slots mask ((i + 1) land mask)

(* ---- construction --------------------------------------------------------- *)

(* Growable stack of node ids.  Capacity doubles. *)
type stack = { mutable data : node array; mutable len : int }

let push st x =
  if st.len = Array.length st.data then begin
    let data = Array.make (2 * st.len) 0 in
    Array.blit st.data 0 data 0 st.len;
    st.data <- data
  end;
  st.data.(st.len) <- x;
  st.len <- st.len + 1

(* Column store under construction, shared by [of_value] and
   [of_lexer_exn].  It starts small and doubles, so a tree costs in
   proportion to itself, not to the input around it.  All node columns
   share one capacity, so admitting a node is a single check.  Fresh
   slots keep their fillers (kind [Kobj], size [1], no children), so a
   node writes only the columns whose filler is wrong for it.  Children
   of the open containers sit on one shared stack and are cut into
   exact per-node arrays when their container closes. *)
type builder = {
  mutable n : int;
  mutable b_kinds : kind array;
  mutable b_parents : int array;
  mutable b_edges : edge array;
  mutable b_sizes : int array;
  mutable b_children : node array array;
  mutable b_keys : string array array;
  mutable b_slots : int array;
  mutable members : int;
  open_ids : stack;
}

let builder () =
  let cap = 32 in
  { n = 0;
    b_kinds = Array.make cap Kobj;
    b_parents = Array.make cap (-1);
    b_edges = Array.make cap Root;
    b_sizes = Array.make cap 1;
    b_children = Array.make cap [||];
    b_keys = Array.make cap [||];
    b_slots = Array.make 32 0;
    members = 0;
    open_ids = { data = Array.make 16 0; len = 0 } }

let builder_grow b =
  let cap = 2 * b.n in
  let copy filler a =
    let d = Array.make cap filler in
    Array.blit a 0 d 0 b.n;
    d
  in
  b.b_kinds <- copy Kobj b.b_kinds;
  b.b_parents <- copy (-1) b.b_parents;
  b.b_edges <- copy Root b.b_edges;
  b.b_sizes <- copy 1 b.b_sizes;
  b.b_children <- copy [||] b.b_children;
  b.b_keys <- copy [||] b.b_keys

let new_node b parent edge =
  if b.n = Array.length b.b_kinds then builder_grow b;
  let id = b.n in
  b.b_parents.(id) <- parent;
  b.b_edges.(id) <- edge;
  b.n <- id + 1;
  id

(* Enter member [key] of object [p] into the key table, its child
   being the node the builder creates next; [false] when [p] already
   has the key.  Nothing reads the entry's edge before that node
   exists: only a claim under [p] can match its tag, and the next one
   comes after the member's value. *)
let claim_member b p key =
  let old = b.b_slots in
  if 4 * (b.members + 1) > Array.length old then begin
    let slots = Array.make (2 * Array.length old) 0 in
    let mask = Array.length old - 1 in
    for i = 0 to (Array.length old / 2) - 1 do
      let c = old.((2 * i) + 1) in
      if c <> 0 then begin
        let j = free_slot slots mask (home old.(2 * i) mask) in
        slots.(2 * j) <- old.(2 * i);
        slots.((2 * j) + 1) <- c
      end
    done;
    b.b_slots <- slots
  end;
  let tg = tag p key in
  let i = probe b.b_slots b.b_edges tg key in
  b.b_slots.((2 * i) + 1) = 0
  && begin
    b.b_slots.(2 * i) <- tg;
    b.b_slots.((2 * i) + 1) <- b.n;
    b.members <- b.members + 1;
    true
  end

(* Close container [id], whose children were pushed since the open-id
   stack had length [base]. *)
let close b id base =
  let st = b.open_ids in
  let m = st.len - base in
  if m > 0 then begin
    let kids = Array.sub st.data base m in
    b.b_children.(id) <- kids;
    if b.b_kinds.(id) == Kobj then
      b.b_keys.(id) <- Array.map (fun c -> key_of_edge b.b_edges.(c)) kids
  end;
  st.len <- base;
  b.b_sizes.(id) <- b.n - id

let finish b =
  let trim : 'a. 'a array -> 'a array =
   fun a -> if Array.length a = b.n then a else Array.sub a 0 b.n
  in
  { kinds = trim b.b_kinds;
    child_nodes = trim b.b_children;
    child_keys = trim b.b_keys;
    parents = trim b.b_parents;
    edges = trim b.b_edges;
    sizes = trim b.b_sizes;
    slots = b.b_slots;
    hashes = Atomic.make None;
    heights = Atomic.make None;
    depths = Atomic.make None;
    index = Atomic.make None }

let of_value ?(budget = Obs.Budget.unlimited) v =
  let b = builder () in
  let rec build v parent edge depth =
    Obs.Budget.check_depth budget depth;
    Obs.Budget.burn budget 1;
    let id = new_node b parent edge in
    (match v with
    | Value.Num k ->
      if k < 0 then raise (Value.Invalid "negative number in tree");
      b.b_kinds.(id) <- Kint k
    | Value.Str s -> b.b_kinds.(id) <- Kstr s
    | Value.Arr vs ->
      b.b_kinds.(id) <- Karr;
      let base = b.open_ids.len in
      List.iteri
        (fun i v -> push b.open_ids (build v id (Pos i) (depth + 1)))
        vs;
      close b id base
    | Value.Obj kvs ->
      let base = b.open_ids.len in
      List.iter
        (fun (k, v) ->
          if not (claim_member b id k) then
            raise (Value.Invalid (Printf.sprintf "duplicate key %S" k));
          push b.open_ids (build v id (Key k) (depth + 1)))
        kvs;
      close b id base);
    id
  in
  ignore (build v (-1) Root 0);
  finish b

(* One fused pass: lexing, syntax checking and tree construction, with
   tokens consumed straight off the lexer and every node emitted into
   the flat preorder arrays as it is entered — no token list, no
   [Value.t] intermediate, no separate [Value.size] pre-pass.  Nodes
   are numbered in preorder by construction (JSON text {e is} a
   preorder traversal), so a subtree's size is simply the id counter's
   travel across it.  Positions, error messages and literal-mode
   handling reuse the {!Parser} helpers verbatim, which is what makes
   this route differentially testable against
   [of_value (Parser.parse_exn input)]. *)
let of_lexer_exn ?(mode = `Strict) ?(base_depth = 0) ~budget lx =
  let b = builder () in
  let rec value parent edge depth =
    let pos, tok = Lexer.next lx in
    (* Budget parity with the two-stage route: one guard accounts both
       the parse unit and the tree-construction unit that [of_value]
       burns per node, positioned at the value's first token exactly
       like the parser's peek-then-guard.  [depth] is absolute, so the
       ceiling applies to real document nesting when a spill starts
       [base_depth] levels down. *)
    Parser.guard ~units:2 budget pos depth;
    Obs.Metrics.incr "parse.values";
    let id = new_node b parent edge in
    (match tok with
    | Lexer.Lbrace -> obj id depth
    | Lexer.Lbracket -> arr id depth
    | Lexer.Nat k -> b.b_kinds.(id) <- Kint k
    | Lexer.String s -> b.b_kinds.(id) <- Kstr s
    | Lexer.Neg_int _ | Lexer.Float _ | Lexer.True | Lexer.False
    | Lexer.Null -> (
      match Parser.literal_atom mode pos tok with
      | Parser.Int k -> b.b_kinds.(id) <- Kint k
      | Parser.Str s -> b.b_kinds.(id) <- Kstr s)
    | Lexer.Rbrace | Lexer.Rbracket | Lexer.Colon | Lexer.Comma | Lexer.Eof ->
      Parser.unexpected pos tok "a JSON value");
    id
  and obj id depth =
    let base = b.open_ids.len in
    let rec members () =
      let pos, tok = Lexer.next lx in
      match tok with
      | Lexer.String key ->
        if not (claim_member b id key) then
          Parser.fail pos "duplicate object key %S" key;
        let pos, tok = Lexer.next lx in
        if tok <> Lexer.Colon then Parser.unexpected pos tok "':'";
        push b.open_ids (value id (Key key) (depth + 1));
        let pos, tok = Lexer.next lx in
        (match tok with
        | Lexer.Comma -> members ()
        | Lexer.Rbrace -> ()
        | _ -> Parser.unexpected pos tok "',' or '}'")
      | _ -> Parser.unexpected pos tok "a string key"
    in
    let _, tok = Lexer.peek lx in
    if tok = Lexer.Rbrace then ignore (Lexer.next lx) else members ();
    close b id base
  and arr id depth =
    b.b_kinds.(id) <- Karr;
    let base = b.open_ids.len in
    let rec elements () =
      let cid = value id (Pos (b.open_ids.len - base)) (depth + 1) in
      push b.open_ids cid;
      let pos, tok = Lexer.next lx in
      match tok with
      | Lexer.Comma -> elements ()
      | Lexer.Rbracket -> ()
      | _ -> Parser.unexpected pos tok "',' or ']'"
    in
    let _, tok = Lexer.peek lx in
    if tok = Lexer.Rbracket then ignore (Lexer.next lx) else elements ();
    close b id base
  in
  ignore (value (-1) Root base_depth);
  finish b

let of_string_exn ?mode ?max_depth ?budget input =
  let budget = Parser.budget_of budget max_depth in
  let lx = Lexer.create input in
  let t = of_lexer_exn ?mode ~budget lx in
  let pos, tok = Lexer.next lx in
  if tok <> Lexer.Eof then Parser.unexpected pos tok "end of input";
  Obs.Metrics.add "parse.direct.bytes" (String.length input);
  Obs.Metrics.incr "parse.direct.docs";
  t

let of_string ?mode ?max_depth ?budget input =
  Parser.wrap (fun () -> of_string_exn ?mode ?max_depth ?budget input)

(* ---- lazy columns --------------------------------------------------------- *)

(* The first reader builds the whole column and publishes the finished
   value.  Readers racing on other domains may each build it; the
   builds are pure and agree, so whichever lands is the column. *)
let force cell build =
  match Atomic.get cell with
  | Some x -> x
  | None ->
    let x = build () in
    Atomic.set cell (Some x);
    x

(* Structural hashing: must agree with Value.hash-style equality, i.e.
   insensitive to object pair order.  We fold children of objects in
   key-sorted order; hash mixing matches no external format, it only has
   to be internally consistent. *)
let mix h x = (h * 0x01000193) lxor x land max_int

let leaf_hash = function
  | Kint k -> mix (mix 0x811c9dc5 1) k
  | Kstr s -> mix (mix 0x811c9dc5 2) (String.hash s)
  | Kobj | Karr -> invalid_arg "Tree.leaf_hash"

(* Sort the parallel segments [a.(lo..hi)], [b.(lo..hi)] by (a, b)
   lexicographically — the order [Array.sort Stdlib.compare] gives
   (int * int) pairs, without allocating the pairs.  Pairs comparing
   equal are componentwise equal, so the object-hash fold below is
   insensitive to how ties land. *)
let rec sort_pairs a b lo hi =
  if hi - lo < 12 then
    for i = lo + 1 to hi do
      let ka = a.(i) and kb = b.(i) in
      let j = ref (i - 1) in
      while !j >= lo && (a.(!j) > ka || (a.(!j) = ka && b.(!j) > kb)) do
        a.(!j + 1) <- a.(!j);
        b.(!j + 1) <- b.(!j);
        decr j
      done;
      a.(!j + 1) <- ka;
      b.(!j + 1) <- kb
    done
  else begin
    let mid = (lo + hi) / 2 in
    let pa = a.(mid) and pb = b.(mid) in
    let swap i j =
      let ta = a.(i) and tb = b.(i) in
      a.(i) <- a.(j);
      b.(i) <- b.(j);
      a.(j) <- ta;
      b.(j) <- tb
    in
    let i = ref lo and j = ref hi in
    while !i <= !j do
      while a.(!i) < pa || (a.(!i) = pa && b.(!i) < pb) do incr i done;
      while a.(!j) > pa || (a.(!j) = pa && b.(!j) > pb) do decr j done;
      if !i <= !j then begin
        swap !i !j;
        incr i;
        decr j
      end
    done;
    sort_pairs a b lo !j;
    sort_pairs a b !i hi
  end

(* Children have larger ids than their parent, so one sweep in reverse
   preorder sees every child's hash before its parent needs it. *)
let build_hashes t =
  let n = Array.length t.kinds in
  let hs = Array.make n 0 in
  let khs = ref [||] and vhs = ref [||] in
  for nd = n - 1 downto 0 do
    hs.(nd) <-
      (match t.kinds.(nd) with
      | Karr ->
        Array.fold_left
          (fun h c -> mix h hs.(c))
          (mix 0x811c9dc5 3) t.child_nodes.(nd)
      | Kobj ->
        let kids = t.child_nodes.(nd) and keys = t.child_keys.(nd) in
        let m = Array.length kids in
        if m > Array.length !khs then begin
          khs := Array.make (2 * m) 0;
          vhs := Array.make (2 * m) 0
        end;
        let khs = !khs and vhs = !vhs in
        for i = 0 to m - 1 do
          khs.(i) <- String.hash keys.(i);
          vhs.(i) <- hs.(kids.(i))
        done;
        (* order-insensitive: fold pair hashes in sorted order *)
        sort_pairs khs vhs 0 (m - 1);
        let h = ref (mix 0x811c9dc5 4) in
        for i = 0 to m - 1 do
          h := mix (mix !h khs.(i)) vhs.(i)
        done;
        !h
      | (Kstr _ | Kint _) as leaf -> leaf_hash leaf)
  done;
  hs

let build_heights t =
  let hs = Array.make (Array.length t.kinds) 0 in
  for nd = Array.length t.kinds - 1 downto 1 do
    let p = t.parents.(nd) in
    if hs.(nd) >= hs.(p) then hs.(p) <- hs.(nd) + 1
  done;
  hs

(* Parents precede their children, so a preorder sweep sees each
   parent's depth first. *)
let build_depths t =
  let ds = Array.make (Array.length t.kinds) 0 in
  for nd = 1 to Array.length t.kinds - 1 do
    ds.(nd) <- ds.(t.parents.(nd)) + 1
  done;
  ds

let subtree_hash t n =
  match t.kinds.(n) with
  | (Kstr _ | Kint _) as leaf -> leaf_hash leaf
  | Kobj | Karr -> (force t.hashes (fun () -> build_hashes t)).(n)

let heights t = force t.heights (fun () -> build_heights t)

let height_of t n =
  match t.kinds.(n) with Kstr _ | Kint _ -> 0 | Kobj | Karr -> (heights t).(n)

let height t = height_of t root

(* ---- accessors ------------------------------------------------------------ *)

let node_count t = Array.length t.kinds
let kind t n = t.kinds.(n)
let is_obj t n = match t.kinds.(n) with Kobj -> true | _ -> false
let is_arr t n = match t.kinds.(n) with Karr -> true | _ -> false
let is_str t n = match t.kinds.(n) with Kstr _ -> true | _ -> false
let is_int t n = match t.kinds.(n) with Kint _ -> true | _ -> false
let str_value t n = match t.kinds.(n) with Kstr s -> Some s | _ -> None
let int_value t n = match t.kinds.(n) with Kint k -> Some k | _ -> None

let obj_children t n =
  match t.kinds.(n) with
  | Kobj ->
    let kids = t.child_nodes.(n) and keys = t.child_keys.(n) in
    List.init (Array.length kids) (fun i -> (keys.(i), kids.(i)))
  | Karr | Kstr _ | Kint _ -> []

let arr_children t n =
  match t.kinds.(n) with
  | Karr -> t.child_nodes.(n)
  | Kobj | Kstr _ | Kint _ -> [||]

let children t n = Array.to_list t.child_nodes.(n)
let arity t n = Array.length t.child_nodes.(n)
let child_ids t n = t.child_nodes.(n)

let obj_keys t n =
  match t.kinds.(n) with
  | Kobj -> t.child_keys.(n)
  | Karr | Kstr _ | Kint _ -> [||]

let lookup t n k =
  match t.kinds.(n) with
  | Kobj -> (
    match t.slots.((2 * probe t.slots t.edges (tag n k) k) + 1) with
    | 0 -> None
    | c -> Some c)
  | Karr | Kstr _ | Kint _ -> None

let nth t n i =
  match t.kinds.(n) with
  | Karr ->
    let kids = t.child_nodes.(n) in
    let len = Array.length kids in
    let i = if i < 0 then len + i else i in
    if i < 0 || i >= len then None else Some kids.(i)
  | Kobj | Kstr _ | Kint _ -> None

let parent t n = if t.parents.(n) < 0 then None else Some t.parents.(n)
let parent_id t n = t.parents.(n)
let edge_from_parent t n = t.edges.(n)

(* ---- label index -------------------------------------------------------- *)

let make_index budget t =
  Obs.Metrics.span "tree.index.build" (fun () ->
      let n = Array.length t.kinds in
      (* one fuel unit per node: a single bucketing pass *)
      Obs.Budget.burn budget n;
      Obs.Metrics.incr "tree.index.builds";
      let key_buckets : (string, node list) Hashtbl.t = Hashtbl.create 64 in
      let max_ar =
        Array.fold_left
          (fun m kids -> max m (Array.length kids))
          0 t.child_nodes
      in
      let pos_buckets = Array.make max_ar [] in
      let arrays = ref [] in
      (* descending pass so each (consed) bucket ends up in preorder *)
      for nd = n - 1 downto 0 do
        (match t.kinds.(nd) with
        | Karr -> arrays := nd :: !arrays
        | Kobj | Kstr _ | Kint _ -> ());
        match t.edges.(nd) with
        | Root -> ()
        | Key k ->
          let prev =
            match Hashtbl.find_opt key_buckets k with Some l -> l | None -> []
          in
          Hashtbl.replace key_buckets k (nd :: prev)
        | Pos p -> pos_buckets.(p) <- nd :: pos_buckets.(p)
      done;
      let by_key = Hashtbl.create (max 16 (Hashtbl.length key_buckets)) in
      Hashtbl.iter
        (fun k l -> Hashtbl.replace by_key k (Array.of_list l))
        key_buckets;
      { by_key;
        by_pos = Array.map Array.of_list pos_buckets;
        arrays = Array.of_list !arrays })

let build_index ?(budget = Obs.Budget.unlimited) t =
  ignore (force t.index (fun () -> make_index budget t))

let index t = force t.index (fun () -> make_index Obs.Budget.unlimited t)

let key_index t k =
  match Hashtbl.find_opt (index t).by_key k with
  | Some a -> a
  | None -> [||]

let pos_index t p =
  let i = index t in
  if p < 0 || p >= Array.length i.by_pos then [||] else i.by_pos.(p)

let max_arity t = Array.length (index t).by_pos
let arr_index t = (index t).arrays
let iter_key_index f t = Hashtbl.iter f (index t).by_key
let size t n = t.sizes.(n)
let depth t n = (force t.depths (fun () -> build_depths t)).(n)

let rec value_at t n =
  match t.kinds.(n) with
  | Kint k -> Value.Num k
  | Kstr s -> Value.Str s
  | Karr -> Value.Arr (List.map (value_at t) (children t n))
  | Kobj -> Value.Obj (List.map (fun (k, c) -> (k, value_at t c)) (obj_children t n))

let to_value t = value_at t root

(* Rebuild the whole document with json(n) replaced by [v]: only the
   root-to-n spine is reconstructed, siblings are converted with
   [value_at] — O(|D|) total, no intermediate tree. *)
let substitute t n v =
  let rec up n v =
    if n = root then v
    else
      let p = t.parents.(n) in
      let rebuilt =
        match t.kinds.(p) with
        | Kobj ->
          Value.Obj
            (List.map
               (fun (k, c) -> (k, if c = n then v else value_at t c))
               (obj_children t p))
        | Karr ->
          Value.Arr
            (List.map (fun c -> if c = n then v else value_at t c) (children t p))
        | Kstr _ | Kint _ -> assert false (* atoms have no children *)
      in
      up p rebuilt
  in
  if n < 0 || n >= node_count t then invalid_arg "Tree.substitute: bad node"
  else up n v

(* Structural walk deciding json(n1) = json(n2) across trees t1/t2. *)
let rec structural_equal t1 n1 t2 n2 =
  match (t1.kinds.(n1), t2.kinds.(n2)) with
  | Kint a, Kint b -> a = b
  | Kstr a, Kstr b -> String.equal a b
  | Karr, Karr ->
    let k1 = t1.child_nodes.(n1) and k2 = t2.child_nodes.(n2) in
    Array.length k1 = Array.length k2
    &&
    let rec go i =
      i >= Array.length k1
      || (structural_equal t1 k1.(i) t2 k2.(i) && go (i + 1))
    in
    go 0
  | Kobj, Kobj ->
    let k1 = t1.child_nodes.(n1) and k2 = t2.child_nodes.(n2) in
    Array.length k1 = Array.length k2
    &&
    let keys1 = t1.child_keys.(n1) in
    let rec go i =
      i >= Array.length k1
      ||
      match lookup t2 n2 keys1.(i) with
      | None -> false
      | Some c2 -> structural_equal t1 k1.(i) t2 c2 && go (i + 1)
    in
    go 0
  | (Kobj | Karr | Kstr _ | Kint _), _ -> false

let equal_across t1 n1 t2 n2 =
  subtree_hash t1 n1 = subtree_hash t2 n2
  && t1.sizes.(n1) = t2.sizes.(n2)
  && structural_equal t1 n1 t2 n2

let equal_subtrees t n1 n2 = n1 = n2 || equal_across t n1 t n2

(* Compare a subtree against a constant value without materializing the
   value of the subtree. *)
let rec equal_value_walk t n (v : Value.t) =
  match (t.kinds.(n), v) with
  | Kint a, Value.Num b -> a = b
  | Kstr a, Value.Str b -> String.equal a b
  | Karr, Value.Arr vs ->
    let kids = t.child_nodes.(n) in
    List.length vs = Array.length kids
    && List.for_all2
         (fun c v -> equal_value_walk t c v)
         (Array.to_list kids) vs
  | Kobj, Value.Obj kvs ->
    arity t n = List.length kvs
    && List.for_all
         (fun (k, v) ->
           match lookup t n k with
           | None -> false
           | Some c -> equal_value_walk t c v)
         kvs
  | (Kobj | Karr | Kstr _ | Kint _), _ -> false

let equal_to_value t n v =
  size t n = Value.size v && equal_value_walk t n v

let nodes t = Seq.init (node_count t) Fun.id
let iter f t = Seq.iter f (nodes t)

let nodes_by_height t =
  let hs = heights t in
  let buckets = Array.make (hs.(root) + 1) [] in
  (* reverse preorder keeps each bucket in preorder *)
  for n = node_count t - 1 downto 0 do
    buckets.(hs.(n)) <- n :: buckets.(hs.(n))
  done;
  buckets

let address t n =
  let rec go n acc =
    match t.edges.(n) with
    | Root -> acc
    | Pos i -> go t.parents.(n) (i :: acc)
    | Key k ->
      (* position of the key among the parent's children *)
      let keys = t.child_keys.(t.parents.(n)) in
      let rec find i = if keys.(i) = k then i else find (i + 1) in
      go t.parents.(n) (find 0 :: acc)
  in
  go n []

let pp_node t fmt n =
  let addr = address t n in
  Format.fprintf fmt "@[<h>/%s: %s@]"
    (String.concat "/" (List.map string_of_int addr))
    (match t.kinds.(n) with
    | Kobj -> Printf.sprintf "object(%d children)" (arity t n)
    | Karr -> Printf.sprintf "array(%d elements)" (arity t n)
    | Kstr s -> Printf.sprintf "string %S" s
    | Kint k -> Printf.sprintf "number %d" k)
