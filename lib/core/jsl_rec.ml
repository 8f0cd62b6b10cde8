module Tree = Jsont.Tree

type t = { defs : (string * Jsl.t) list; base : Jsl.t }

(* Symbols occurring outside the scope of any modal operator — the
   edges of the precedence graph. *)
let nonmodal_vars f =
  let rec go acc (f : Jsl.t) =
    match f with
    | Jsl.True | Jsl.Test _ -> acc
    | Jsl.Var v -> v :: acc
    | Jsl.Not g -> go acc g
    | Jsl.And (a, b) | Jsl.Or (a, b) -> go (go acc a) b
    | Jsl.Dia_keys _ | Jsl.Box_keys _ | Jsl.Dia_range _ | Jsl.Box_range _ ->
      acc
  in
  List.sort_uniq String.compare (go [] f)

let precedence_graph t =
  List.map (fun (v, def) -> (v, nonmodal_vars def)) t.defs

let well_formed t =
  let defined = List.map fst t.defs in
  let dup =
    let rec find = function
      | [] -> None
      | v :: rest -> if List.mem v rest then Some v else find rest
    in
    find defined
  in
  match dup with
  | Some v -> Error (Printf.sprintf "symbol $%s defined twice" v)
  | None -> (
    let undefined =
      List.concat_map
        (fun f -> List.filter (fun v -> not (List.mem v defined)) (Jsl.free_vars f))
        (t.base :: List.map snd t.defs)
    in
    match undefined with
    | v :: _ -> Error (Printf.sprintf "undefined symbol $%s" v)
    | [] ->
      (* acyclicity of the precedence graph by DFS *)
      let graph = precedence_graph t in
      let color = Hashtbl.create 16 in
      let rec visit v =
        match Hashtbl.find_opt color v with
        | Some `Done -> Ok ()
        | Some `Active -> Error (Printf.sprintf "precedence cycle through $%s" v)
        | None ->
          Hashtbl.replace color v `Active;
          let rec visit_all = function
            | [] ->
              Hashtbl.replace color v `Done;
              Ok ()
            | w :: rest -> (
              match visit w with Ok () -> visit_all rest | Error _ as e -> e)
          in
          visit_all (try List.assoc v graph with Not_found -> [])
      in
      let rec all = function
        | [] -> Ok ()
        | (v, _) :: rest -> (
          match visit v with Ok () -> all rest | Error _ as e -> e)
      in
      all t.defs)

let make ~defs ~base =
  let t = { defs; base } in
  match well_formed t with Ok () -> Ok t | Error _ as e -> e

let make_exn ~defs ~base =
  match make ~defs ~base with
  | Ok t -> t
  | Error m -> invalid_arg ("Jsl_rec.make_exn: " ^ m)

let size t =
  List.fold_left (fun acc (_, f) -> acc + 1 + Jsl.size f) (Jsl.size t.base) t.defs

(* Definitions in dependency-first order of the precedence graph, so a
   symbol is always computed after the symbols it references outside
   modal operators. *)
let topo_defs t =
  let graph = precedence_graph t in
  let visited = Hashtbl.create 16 in
  let order = ref [] in
  let rec visit v =
    if not (Hashtbl.mem visited v) then begin
      Hashtbl.add visited v ();
      List.iter visit (try List.assoc v graph with Not_found -> []);
      match List.assoc_opt v t.defs with
      | Some def -> order := (v, def) :: !order
      | None -> ()
    end
  in
  List.iter (fun (v, _) -> visit v) t.defs;
  List.rev !order

(* One expansion per (variable, remaining height), shared by every
   occurrence: copying it at each [Var] would make the formula grow
   exponentially with the height; shared, it has O(|defs|·height)
   distinct subterms. *)
let unfold t ~height =
  let budget0 = height + 1 in
  let expansions = Hashtbl.create 16 in
  let rec expand budget (f : Jsl.t) : Jsl.t =
    match f with
    | Jsl.Var v -> (
      if budget <= 0 then Jsl.ff
      else
        match Hashtbl.find_opt expansions (v, budget) with
        | Some g -> g
        | None ->
          let g = expand budget (List.assoc v t.defs) in
          Hashtbl.add expansions (v, budget) g;
          g)
    | Jsl.True | Jsl.Test _ -> f
    | Jsl.Not g -> Jsl.Not (expand budget g)
    | Jsl.And (a, b) -> Jsl.And (expand budget a, expand budget b)
    | Jsl.Or (a, b) -> Jsl.Or (expand budget a, expand budget b)
    | Jsl.Dia_keys (e, g) -> Jsl.Dia_keys (e, expand (budget - 1) g)
    | Jsl.Box_keys (e, g) -> Jsl.Box_keys (e, expand (budget - 1) g)
    | Jsl.Dia_range (i, j, g) -> Jsl.Dia_range (i, j, expand (budget - 1) g)
    | Jsl.Box_range (i, j, g) -> Jsl.Box_range (i, j, expand (budget - 1) g)
  in
  expand budget0 t.base

(* Bottom-up evaluation by height (Proposition 9). *)
let build_table ?budget tree t =
  let ctx = Jsl.context ?budget tree in
  let n = Tree.node_count tree in
  let table = Hashtbl.create (List.length t.defs) in
  List.iter (fun (v, _) -> Hashtbl.add table v (Bitset.create n)) t.defs;
  let env v node = Bitset.mem (Hashtbl.find table v) node in
  let ordered = topo_defs t in
  Array.iter
    (fun bucket ->
      List.iter
        (fun (v, def) ->
          let set = Hashtbl.find table v in
          List.iter
            (fun node ->
              if Jsl.node_eval ctx ~env node def then Bitset.add set node)
            bucket)
        ordered)
    (Tree.nodes_by_height tree);
  (ctx, env, table)

let sat_table ?budget tree t =
  let _, _, table = build_table ?budget tree t in
  List.map (fun (v, _) -> (v, Hashtbl.find table v)) t.defs

let holds_at ?budget tree t node =
  let ctx, env, _ = build_table ?budget tree t in
  Jsl.node_eval ctx ~env node t.base

let validates ?budget v t =
  holds_at ?budget (Jsont.Tree.of_value ?budget v) t Tree.root

let validates_by_unfolding v t =
  let tree = Tree.of_value v in
  let f = unfold t ~height:(Tree.height tree) in
  let ctx = Jsl.context tree in
  Jsl.holds ctx Tree.root f

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun (v, def) -> Format.fprintf fmt "$%s = %a@," v Jsl.pp def)
    t.defs;
  Format.fprintf fmt "%a@]" Jsl.pp t.base

(* ---- concrete syntax ------------------------------------------------------- *)

let to_string t =
  let buf = Buffer.create 128 in
  List.iter
    (fun (v, def) ->
      Buffer.add_string buf (Printf.sprintf "$%s = %s;\n" v (Jsl.to_string def)))
    t.defs;
  Buffer.add_string buf (Jsl.to_string t.base);
  Buffer.contents buf

(* split on top-level ';' — not inside "strings" or /regex literals/ *)
let split_statements input =
  let parts = ref [] in
  let buf = Buffer.create 64 in
  let n = String.length input in
  let i = ref 0 in
  let mode = ref `Plain in
  while !i < n do
    let ch = input.[!i] in
    (match !mode with
    | `Plain -> (
      match ch with
      | ';' ->
        parts := Buffer.contents buf :: !parts;
        Buffer.clear buf
      | '"' ->
        mode := `String;
        Buffer.add_char buf ch
      | '/' ->
        mode := `Regex;
        Buffer.add_char buf ch
      | c -> Buffer.add_char buf c)
    | `String -> (
      Buffer.add_char buf ch;
      match ch with
      | '\\' when !i + 1 < n ->
        incr i;
        Buffer.add_char buf input.[!i]
      | '"' -> mode := `Plain
      | _ -> ())
    | `Regex -> (
      Buffer.add_char buf ch;
      match ch with
      | '\\' when !i + 1 < n ->
        incr i;
        Buffer.add_char buf input.[!i]
      | '/' -> mode := `Plain
      | _ -> ()));
    incr i
  done;
  parts := Buffer.contents buf :: !parts;
  List.rev !parts

let parse input =
  let statements = split_statements input in
  let trim = String.trim in
  let rec go defs = function
    | [] -> Error "missing base expression"
    | [ base_text ] -> (
      match Jsl.parse (trim base_text) with
      | Error m -> Error ("base expression: " ^ m)
      | Ok base -> make ~defs:(List.rev defs) ~base)
    | def_text :: rest -> (
      let def_text = trim def_text in
      match String.index_opt def_text '=' with
      | Some eq
        when String.length def_text > 0
             && def_text.[0] = '$'
             && not (String.contains (String.sub def_text 0 eq) '(') -> (
        let name = trim (String.sub def_text 1 (eq - 1)) in
        let body = String.sub def_text (eq + 1) (String.length def_text - eq - 1) in
        if name = "" then Error "empty definition name"
        else
          match Jsl.parse (trim body) with
          | Error m -> Error (Printf.sprintf "definition $%s: %s" name m)
          | Ok f -> go ((name, f) :: defs) rest)
      | _ -> Error (Printf.sprintf "expected a definition, got %S" def_text))
  in
  go [] statements

let parse_exn input =
  match parse input with
  | Ok t -> t
  | Error m -> invalid_arg ("Jsl_rec.parse_exn: " ^ m)
