let any_of ss = [ Schema.C_any_of ss ]
let s_true : Schema.t = []

let repeat n (x : Schema.t) = List.init n (fun _ -> x)

(* arrays of at least [k] elements; its negation holds at non-arrays
   and at arrays of at most [k-1] elements *)
let at_least k : Schema.t =
  [ Schema.C_type Schema.T_array;
    Schema.C_items (repeat k s_true);
    Schema.C_additional_items s_true ]

let atoms : Schema.t list =
  [ [ Schema.C_type Schema.T_string ]; [ Schema.C_type Schema.T_number ] ]

let rec schema (f : Jlogic.Jsl.t) : Schema.t =
  match f with
  | Jlogic.Jsl.True -> s_true
  | Jlogic.Jsl.Not g -> [ Schema.C_not (schema g) ]
  | Jlogic.Jsl.And (a, b) -> [ Schema.C_all_of [ schema a; schema b ] ]
  | Jlogic.Jsl.Or (a, b) -> [ Schema.C_any_of [ schema a; schema b ] ]
  | Jlogic.Jsl.Var v -> [ Schema.C_ref v ]
  | Jlogic.Jsl.Test nt -> node_test nt
  | Jlogic.Jsl.Box_keys (e, g) -> [ Schema.C_pattern_properties [ (e, schema g) ] ]
  | Jlogic.Jsl.Dia_keys (e, g) ->
    (* ◇_e ϕ = ¬ □_e ¬ϕ, and a ◇ also rules out non-objects, which □'s
       vacuity would admit *)
    [ Schema.C_type Schema.T_object;
      Schema.C_not [ Schema.C_pattern_properties [ (e, [ Schema.C_not (schema g) ]) ] ]
    ]
  | Jlogic.Jsl.Box_range (i, j, g) -> box_range i j (schema g)
  | Jlogic.Jsl.Dia_range (i, j, g) ->
    [ Schema.C_type Schema.T_array;
      Schema.C_not (box_range i j [ Schema.C_not (schema g) ]) ]

(* arrays whose positions i..j (inclusive, possibly unbounded) all
   validate [s]; anything that is not an array, or an array too short
   to reach position i, passes vacuously *)
and box_range i j (s : Schema.t) : Schema.t =
  let long =
    match j with
    | None ->
      [ [ Schema.C_type Schema.T_array;
          Schema.C_items (repeat i s_true);
          Schema.C_additional_items s ] ]
    | Some j ->
      (* exact lengths i+1 .. j: positions i..len-1 constrained *)
      let middles =
        List.init (max (j - i) 0) (fun d ->
            [ Schema.C_type Schema.T_array;
              Schema.C_items (repeat i s_true @ repeat (d + 1) s) ])
      in
      let beyond =
        [ Schema.C_type Schema.T_array;
          Schema.C_items (repeat i s_true @ repeat (j - i + 1) s);
          Schema.C_additional_items s_true ]
      in
      middles @ [ beyond ]
  in
  any_of ([ Schema.C_not (at_least (i + 1)) ] :: long)

and node_test (nt : Jlogic.Jsl.node_test) : Schema.t =
  match nt with
  | Jlogic.Jsl.Is_obj -> [ Schema.C_type Schema.T_object ]
  | Jlogic.Jsl.Is_arr -> [ Schema.C_type Schema.T_array ]
  | Jlogic.Jsl.Is_str -> [ Schema.C_type Schema.T_string ]
  | Jlogic.Jsl.Is_int -> [ Schema.C_type Schema.T_number ]
  | Jlogic.Jsl.Unique -> [ Schema.C_type Schema.T_array; Schema.C_unique_items ]
  | Jlogic.Jsl.Pattern e -> [ Schema.C_type Schema.T_string; Schema.C_pattern e ]
  | Jlogic.Jsl.Min i -> [ Schema.C_type Schema.T_number; Schema.C_minimum i ]
  | Jlogic.Jsl.Max i -> [ Schema.C_type Schema.T_number; Schema.C_maximum i ]
  | Jlogic.Jsl.Mult_of 0 -> [ Schema.C_not s_true ] (* holds nowhere *)
  | Jlogic.Jsl.Mult_of i -> [ Schema.C_type Schema.T_number; Schema.C_multiple_of i ]
  | Jlogic.Jsl.Min_ch i ->
    if i = 0 then s_true
    else
      any_of
        [ [ Schema.C_type Schema.T_object; Schema.C_min_properties i ];
          at_least i ]
  | Jlogic.Jsl.Max_ch i ->
    (* strings and numbers have 0 children and always qualify *)
    any_of
      (atoms
      @ [ [ Schema.C_type Schema.T_object; Schema.C_max_properties i ];
          [ Schema.C_type Schema.T_array; Schema.C_not (at_least (i + 1)) ] ])
  | Jlogic.Jsl.Eq_doc v -> [ Schema.C_enum [ v ] ]

let document (r : Jlogic.Jsl_rec.t) : Schema.document =
  { Schema.definitions = List.map (fun (v, d) -> (v, schema d)) r.Jlogic.Jsl_rec.defs;
    root = schema r.Jlogic.Jsl_rec.base }
