(** Compile-once schema validation (the fast path behind
    {!Validate.Plan}).

    {!compile} interns every subschema of a {!Schema.document} —
    definitions included, reference cycles allowed — into an immutable
    array of {e plan nodes} with integer ids, hash-consing structurally
    equal subschemas so [$ref]/[anyOf]/[allOf] sharing is explicit in
    the plan graph.  Per plan node it precomputes everything the
    interpreter re-derives at every visit:

    - a key-dispatch table (property name → subschema ids), so
      [properties]/[additionalProperties] need one sweep over the
      object's members instead of a [List.assoc] scan per property;
    - the required-key set (checked through the tree's O(1) key
      lookup);
    - [pattern]/[patternProperties] regexes lowered to {!Rexp.Dfa} at
      compile time;
    - [items]/[additionalItems] resolved to an array-length interval
      and position ranges, and collapsed numeric / arity bounds;
    - [enum] constants pre-hashed and sorted for binary search on the
      subtree hash.

    {!run_tree} executes a plan directly over the flat {!Jsont.Tree}
    columns — no [Value.t] materialization — memoizing
    (node, plan id) verdicts for the plan nodes with ≥ 2 incoming
    edges, which bounds evaluation to one visit per (node, subschema)
    pair: O(|D|·|φ|) even through [$ref] sharing (Proposition 8's
    bound, which the structural interpreter does not meet).

    The decided relation is {e exactly} {!Validate.validates} — the
    interpreter stays as the differential oracle, including its
    conjunct-interaction fine print (last [items] wins, all
    [additionalProperties] apply, "named" keys are exempt).

    Metrics: span [validate.compile]; counters [validate.plan.nodes],
    [validate.compile.dfas], [validate.plan.runs], [validate.memo.hit].

    A compiled plan is safe to share across domains.  Its nodes are
    immutable, and the per-run memo table is private to each
    {!run_tree} call.  The plan also carries the {!run_stream}
    executor's {e closure automaton}, built lazily as documents stream
    through it: same-node closures interned per requested plan-id set,
    and memoized member/element edges between them.  Entries are
    published with a compare-and-set and are deterministic functions
    of the plan, so concurrent runs share them without locks and a
    lost race adopts an equal value.  The automaton is bounded by the
    plan, never by the documents (counters
    [validate.stream.closures], [validate.stream.edges]). *)

type t
(** A compiled schema document. *)

val compile : ?budget:Obs.Budget.t -> Schema.document -> t
(** Compile a document.  Checks {!Schema.well_formed} exactly once.
    [budget] bounds the compilation (one fuel unit per distinct
    subschema, recursion depth against the ceiling).
    @raise Invalid_argument if the schema is not well-formed. *)

val node_count : t -> int
(** Number of interned plan nodes (distinct subschemas). *)

val run_tree : ?budget:Obs.Budget.t -> t -> Jsont.Tree.t -> bool
(** Validate a tree.  [budget] is charged one fuel unit per fresh
    (node, plan) evaluation — memo hits are free — and recursion depth
    is checked per level.  @raise Obs.Budget.Exhausted. *)

val run : ?budget:Obs.Budget.t -> t -> Jsont.Value.t -> bool
(** [run p v = run_tree p (Tree.of_value v)] — tree construction is
    charged to the same budget.  @raise Jsont.Value.Invalid on invalid
    values (negative numbers, duplicate keys), like every tree-based
    engine. *)

val run_stream :
  ?budget:Obs.Budget.t -> ?mode:[ `Strict | `Lenient ] -> t -> string
  -> bool
(** [run_stream p input] parses and validates [input] in one pass over
    the token stream, never materializing the document: memory is
    proportional to nesting depth plus the width of open containers,
    not to document size.  Per open container it keeps one frame of
    (plan id, obligation) state for the {e same-node closure} of the
    active plan nodes (everything reachable through
    [anyOf]/[allOf]/[not], which constrain the same value); type masks,
    bounds, required sets, key dispatch and items vectors resolve as
    tokens arrive, and subtrees no active node constrains are
    fast-forwarded by {!Jsont.Parser.skip_value} with every syntax /
    duplicate-key / literal-admission check intact.  Keywords that
    genuinely need the subtree — [uniqueItems], [enum] on containers,
    plus the defensive case of a cyclic same-node closure — {e spill}:
    exactly that subtree is materialized through the
    {!Jsont.Tree.of_lexer_exn} column builder and decided by the
    {!run_tree} executor, then streaming resumes after it.

    The decided relation is exactly {!run_tree} ∘ {!Jsont.Tree.of_string}
    (hence also {!Validate.validates}); rendered errors on malformed
    documents are byte-identical to {!Jsont.Tree.of_string_exn}'s.
    [budget]: the depth ceiling follows document nesting with
    parser-identical positions; fuel is charged per streamed value (one
    parse unit plus one per active closure node), per skipped value
    (one), and per spilled value (the materialization's two plus
    {!run_tree}'s per-(node, plan) unit) — a single budget covers the
    fused parse+validate, where the two-stage route draws parse and
    run fuel separately.  [mode] admits literals like the parser's
    (default [`Strict]).

    Counters: [validate.stream.runs], [validate.stream.spills],
    [validate.stream.skipped_bytes], [validate.stream.closures] and
    [validate.stream.edges] (automaton states and edges added to the
    plan; documents of shapes the plan has already streamed add none)
    plus the shared [parse.values].

    @raise Jsont.Parser.Parse_error on malformed input and budget
    exhaustion inside the streaming/parsing layers,
    @raise Obs.Budget.Exhausted from a spilled {!run_tree} execution,
    @raise Jsont.Lexer.Error on lexical errors. *)

val run_lexer :
  ?budget:Obs.Budget.t -> ?mode:[ `Strict | `Lenient ] -> t -> Jsont.Lexer.t
  -> bool
(** [run_lexer p lx] is {!run_stream} over an existing lexer: the
    document is whatever token stream [lx] yields up to [Eof].
    [run_stream p input = run_lexer p (Lexer.create input)].

    With a {!Jsont.Lexer.create_feed} lexer carrying a [refill]
    callback this validates a chunked byte stream — stdin, a socket, a
    file read in fixed-size slices — without ever holding the document
    in memory, and (by the lexer's resumption contract) with verdicts,
    errors and fuel charges byte-identical to the one-shot path. *)

type stream_stats = {
  values : int;
      (** values decided in the stream; skipped subtrees are not
          counted *)
  peak_obligations : int;
      (** the most plan ids live at once, summed over the open
          frames' same-node closures — the memory the stream needs
          beyond nesting depth *)
}

val run_stream_stats : t -> string -> bool * stream_stats
(** {!run_stream} with the default (unlimited) budget and strict mode
    that also reports how much work and how many live obligations the
    run took.  Same verdicts, errors and fuel. *)

(** {1 JSL through Theorem 1}

    The paper conjectures that deterministic JNL/JSL can be evaluated
    over a stream "with constant memory requirements when tree
    equality is excluded".  For closed JSL formulas that are
    {!Jlogic.Jsl.is_deterministic} after {!Jlogic.Jsl.expand_eq} and do
    not use [Unique], [run_stream (of_jsl (Jsl.expand_eq ϕ))] skips
    every subtree the formula does not address and never spills, so
    [peak_obligations] is bounded by the plan size times one plus the
    modal depth, whatever the document.  Ranges and regular key
    expressions stream the same way; only [Unique] spills its array
    into a tree. *)

val of_jsl : Jlogic.Jsl.t -> t
(** [of_jsl ϕ] compiles [ϕ] into plan nodes directly, one per distinct
    subformula, to the plan {!compile} would make of the Theorem 1
    translation {!Of_jsl.schema} up to its size: [run (of_jsl ϕ) v =
    Jsl.validates v ϕ], and so does {!run_stream}.  Position ranges and
    [MinCh]/[MaxCh] are node fields, so a plan's size does not grow with
    the indices and counts in [ϕ] (the schema translation needs an
    [items] list as long as the index).  A [~(A)] test is a one-value
    [enum] decided by subtree hash; streamed, it spills a container
    [A]'s subtree, which {!Jlogic.Jsl.expand_eq} avoids at its cost in
    plan size.
    @raise Invalid_argument on free recursion symbols and negative
    array positions. *)
