(** Theorem 1 / Theorem 3, logic-to-schema direction: every JSL
    expression has an equivalent JSON Schema.

    Follows the constructions in the proof of Theorem 1, with three
    repairs the proof glosses over:

    - [MaxCh(i)] also holds at strings and numbers (0 children), so the
      [anyOf] gains the two atomic types;
    - index modalities must not constrain arrays too short to reach the
      range (□ is vacuous there), so the [anyOf] gains one negated
      "array of at least i+1 elements" branch.  A single index [i]
      therefore costs a schema linear in [i] (the [items] prefix of
      [i] empty schemas) — exponential in the bit length of [i], which
      is the blow-up the paper remarks on before Proposition 7.  A
      range [i:j] also enumerates the exact lengths [i+1 .. j].
      [Validate.Plan.of_jsl] does not go through this translation, so
      its plans stay constant-size in indices;
    - [MultOf(0)] holds nowhere, while [multipleOf 0] is ill-formed, so
      it becomes [not {}].

    [◇] forms are emitted as [not □ not].  Recursion symbols become
    [$ref]s (Theorem 3). *)

val schema : Jlogic.Jsl.t -> Schema.t
val node_test : Jlogic.Jsl.node_test -> Schema.t
(** The schema of one node test, of size linear in a [MinCh]/[MaxCh]
    count. *)

val document : Jlogic.Jsl_rec.t -> Schema.document
