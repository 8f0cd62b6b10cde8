type error = { position : Lexer.position; message : string }

let pp_error fmt { position; message } =
  Format.fprintf fmt "line %d, column %d: %s" position.Lexer.line
    position.Lexer.col message

exception Parse_error of error

let fail position fmt =
  Format.kasprintf (fun message -> raise (Parse_error { position; message })) fmt

let unexpected pos tok expectation =
  fail pos "unexpected %a, expected %s" Lexer.pp_token tok expectation

type atom = Int of int | Str of string

(* Classify a literal token under [mode] without committing to a value
   representation — shared by the {!Value.t}-producing route below and
   the direct string→{!Tree.t} ingestion path, so both reject exactly
   the same literals with exactly the same messages. *)
let literal_atom mode pos (tok : Lexer.token) : atom =
  match (tok, mode) with
  | Lexer.Nat n, _ -> Int n
  | Lexer.String s, _ -> Str s
  | Lexer.True, `Lenient -> Str "true"
  | Lexer.False, `Lenient -> Str "false"
  | Lexer.Null, `Lenient -> Str "null"
  | Lexer.Float f, `Lenient when Float.is_integer f && f >= 0. ->
    (* only narrow floats whose integral value round-trips through the
       native int: [int_of_float] on anything >= 2^62 is undefined (it
       produced 0 for [1e30], silently corrupting the literal) *)
    if f < 0x1p62 then Int (int_of_float f)
    else fail pos "integer literal %.0f out of range" f
  (* [-0] normalizes to the natural 0, like [-0.0] above *)
  | Lexer.Neg_int 0, `Lenient -> Int 0
  | Lexer.True, `Strict | Lexer.False, `Strict ->
    fail pos "boolean literals are outside the model (use `Lenient mode)"
  | Lexer.Null, `Strict ->
    fail pos "null is outside the model (use `Lenient mode)"
  | Lexer.Float _, _ ->
    fail pos "non-integer numbers are outside the model"
  | Lexer.Neg_int _, _ ->
    fail pos "negative numbers are outside the model"
  | _, _ -> assert false

(* Convert a literal outside the paper's model according to [mode]. *)
let literal mode pos (tok : Lexer.token) : Value.t =
  match literal_atom mode pos tok with
  | Int n -> Value.Num n
  | Str s -> Value.Str s

(* One budget check per parsed value: depth against the ceiling, [units]
   units of fuel, and (periodically) the wall-clock deadline.  Budget
   exhaustion is reported as a positioned parse error.  The direct
   ingestion path passes [~units:2] to also account the
   tree-construction unit in the same check. *)
let guard ?(units = 1) budget pos depth =
  match
    Obs.Budget.check_depth budget depth;
    Obs.Budget.burn budget units
  with
  | () -> ()
  | exception Obs.Budget.Exhausted Obs.Budget.Depth ->
    fail pos "maximum nesting depth %d exceeded" (Obs.Budget.max_depth budget)
  | exception Obs.Budget.Exhausted r -> fail pos "%s" (Obs.Budget.describe r)

module Keys = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = String.hash
end)

(* duplicate-key sets for a scan's open objects, one per nesting level:
   sibling objects reuse their level's set instead of allocating one *)
type key_sets = { mutable sets : unit Keys.t array; mutable level : int }

let no_keys : unit Keys.t = Keys.create 1
let key_sets () = { sets = [||]; level = 0 }

let open_object ks =
  let level = ks.level in
  ks.level <- level + 1;
  if level >= Array.length ks.sets then begin
    let grown = Array.make (2 * level + 2) no_keys in
    Array.blit ks.sets 0 grown 0 level;
    ks.sets <- grown
  end;
  let seen = ks.sets.(level) in
  if seen == no_keys then begin
    let seen = Keys.create 16 in
    ks.sets.(level) <- seen;
    seen
  end
  else begin
    (* clearing costs the bucket array: shrink one a wide object grew *)
    if Keys.length seen > 64 then Keys.reset seen else Keys.clear seen;
    seen
  end

let close_object ks = ks.level <- ks.level - 1

let parse_value mode budget lx =
  let keys = key_sets () in
  let rec value depth =
    let pos, _ = Lexer.peek lx in
    guard budget pos depth;
    Obs.Metrics.incr "parse.values";
    let pos, tok = Lexer.next lx in
    match tok with
    | Lexer.Lbrace -> obj depth pos
    | Lexer.Lbracket -> array depth pos
    | Lexer.String _ | Lexer.Nat _ | Lexer.Neg_int _ | Lexer.Float _
    | Lexer.True | Lexer.False | Lexer.Null ->
      literal mode pos tok
    | Lexer.Rbrace | Lexer.Rbracket | Lexer.Colon | Lexer.Comma | Lexer.Eof ->
      unexpected pos tok "a JSON value"
  and obj depth open_pos =
    let rec members seen acc =
      let pos, tok = Lexer.next lx in
      match tok with
      | Lexer.String key ->
        if Keys.mem seen key then fail pos "duplicate object key %S" key;
        Keys.add seen key ();
        let pos, tok = Lexer.next lx in
        if tok <> Lexer.Colon then unexpected pos tok "':'";
        let v = value (depth + 1) in
        let acc = (key, v) :: acc in
        let pos, tok = Lexer.next lx in
        (match tok with
        | Lexer.Comma -> members seen acc
        | Lexer.Rbrace -> Value.Obj (List.rev acc)
        | _ -> unexpected pos tok "',' or '}'")
      | _ -> unexpected pos tok "a string key"
    in
    let _, tok = Lexer.peek lx in
    if tok = Lexer.Rbrace then begin
      ignore (Lexer.next lx);
      Value.Obj []
    end
    else begin
      ignore open_pos;
      let v = members (open_object keys) [] in
      close_object keys;
      v
    end
  and array depth open_pos =
    let rec elements acc =
      let v = value (depth + 1) in
      let pos, tok = Lexer.next lx in
      match tok with
      | Lexer.Comma -> elements (v :: acc)
      | Lexer.Rbracket -> Value.Arr (List.rev (v :: acc))
      | _ -> unexpected pos tok "',' or ']'"
    in
    let _, tok = Lexer.peek lx in
    if tok = Lexer.Rbracket then begin
      ignore (Lexer.next lx);
      Value.Arr []
    end
    else begin
      ignore open_pos;
      elements []
    end
  in
  value 0

(* Consume one complete JSON value without building anything, applying
   exactly the checks the building routes apply: syntax, duplicate
   object keys, literal-mode admission, and the budget guard per value
   ([units] fuel each, depth against the ceiling).  String {e values}
   are validated but not decoded ({!Lexer.next_skip}); object keys are
   decoded because duplicate detection compares them.  Errors are
   byte-identical to {!parse_value} / [Tree.of_string] on the same
   input, which is what lets the streaming validator fast-forward over
   unconstrained subtrees without weakening any check. *)
let skip_value ?(units = 1) mode budget lx depth =
  let keys = key_sets () in
  let rec value depth =
    let pos, tok = Lexer.next_skip lx in
    guard ~units budget pos depth;
    match tok with
    | Lexer.Lbrace -> obj depth
    | Lexer.Lbracket -> arr depth
    | Lexer.String _ | Lexer.Nat _ -> ()  (* admitted in every mode *)
    | Lexer.Neg_int _ | Lexer.Float _ | Lexer.True | Lexer.False | Lexer.Null ->
      ignore (literal_atom mode pos tok)
    | Lexer.Rbrace | Lexer.Rbracket | Lexer.Colon | Lexer.Comma | Lexer.Eof ->
      unexpected pos tok "a JSON value"
  and obj depth =
    match Lexer.peek lx with
    | _, Lexer.Rbrace -> ignore (Lexer.next lx)
    | _ ->
      members (open_object keys) depth;
      close_object keys
  and members seen depth =
    let pos, tok = Lexer.next lx in
    match tok with
    | Lexer.String key -> (
      if Keys.mem seen key then fail pos "duplicate object key %S" key;
      Keys.add seen key ();
      (match Lexer.next lx with
      | _, Lexer.Colon -> ()
      | pos, tok -> unexpected pos tok "':'");
      value (depth + 1);
      match Lexer.next lx with
      | _, Lexer.Comma -> members seen depth
      | _, Lexer.Rbrace -> ()
      | pos, tok -> unexpected pos tok "',' or '}'")
    | _ -> unexpected pos tok "a string key"
  and arr depth =
    match Lexer.peek lx with
    | _, Lexer.Rbracket -> ignore (Lexer.next lx)
    | _ -> elements depth
  and elements depth =
    value (depth + 1);
    match Lexer.next lx with
    | _, Lexer.Comma -> elements depth
    | _, Lexer.Rbracket -> ()
    | pos, tok -> unexpected pos tok "',' or ']'"
  in
  value depth

let budget_of budget max_depth =
  match budget with
  | Some b -> b
  | None ->
    Obs.Budget.depth_limited
      (Option.value ~default:Obs.Budget.default_max_depth max_depth)

let parse_exn ?(mode = `Strict) ?max_depth ?budget input =
  let budget = budget_of budget max_depth in
  let lx = Lexer.create input in
  let v = parse_value mode budget lx in
  let pos, tok = Lexer.next lx in
  if tok <> Lexer.Eof then unexpected pos tok "end of input";
  v

let wrap f =
  match f () with
  | v -> Ok v
  | exception Parse_error e -> Error e
  | exception Lexer.Error (position, message) -> Error { position; message }

let parse ?mode ?max_depth ?budget input =
  wrap (fun () -> parse_exn ?mode ?max_depth ?budget input)

let parse_prefix ?(mode = `Strict) ?budget input start =
  wrap (fun () ->
      let budget = budget_of budget None in
      let tail = String.sub input start (String.length input - start) in
      let lx = Lexer.create tail in
      let v = parse_value mode budget lx in
      (v, start + Lexer.offset lx))

let parse_many ?(mode = `Strict) ?budget input =
  wrap (fun () ->
      (* one budget for the whole stream: fuel and deadline are shared
         across documents, the depth ceiling applies to each *)
      let budget = budget_of budget None in
      let lx = Lexer.create input in
      let rec go acc =
        let _, tok = Lexer.peek lx in
        if tok = Lexer.Eof then List.rev acc
        else go (parse_value mode budget lx :: acc)
      in
      go [])
