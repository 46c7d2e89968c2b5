(** TRC → DRC translation.

    Each tuple variable [t] ranging over relation [R(a₁,…,aₖ)] becomes k
    domain variables [t_a₁ … t_aₖ] together with the atom [R(t_a₁,…,t_aₖ)].
    Quantifier blocks translate as

    - [∃t∈R : φ]   ↦  [∃ t_a₁ … t_aₖ (R(…) ∧ φ′)]
    - [∀t∈R : φ]   ↦  [∀ t_a₁ … t_aₖ (R(…) → φ′)]

    and free ranges contribute their atom as a conjunct of the body, with
    non-head attributes left free (DRC heads must list every free variable,
    so the query head is the full tuple of head fields). *)

module F = Diagres_logic.Fol

let var_name v a = Diagres_logic.Names.sanitize (v ^ "_" ^ a)

let term_to_fol = function
  | Trc.Field (v, a) -> F.Var (var_name v a)
  | Trc.Const c -> F.Const c

(** The atom [R(v_a1, …, v_ak)] for a range declaration. *)
let range_atom schemas (v, r) =
  match List.assoc_opt r schemas with
  | None -> Trc.type_error "unknown relation %S" r
  | Some schema ->
    F.Pred (r, List.map (fun a -> F.Var (var_name v a)) (Diagres_data.Schema.names schema))

let range_vars schemas (v, r) =
  match List.assoc_opt r schemas with
  | None -> Trc.type_error "unknown relation %S" r
  | Some schema ->
    List.map (fun a -> var_name v a) (Diagres_data.Schema.names schema)

let rec formula schemas (f : Trc.formula) : F.t =
  match f with
  | Trc.True -> F.True
  | Trc.False -> F.False
  | Trc.Cmp (op, a, b) -> F.Cmp (op, term_to_fol a, term_to_fol b)
  | Trc.Not g -> F.Not (formula schemas g)
  | Trc.And (a, b) -> F.And (formula schemas a, formula schemas b)
  | Trc.Or (a, b) -> F.Or (formula schemas a, formula schemas b)
  | Trc.Implies (a, b) -> F.Implies (formula schemas a, formula schemas b)
  | Trc.Exists (rs, g) ->
    let inner =
      List.fold_left
        (fun acc r -> F.And (acc, range_atom schemas r))
        (range_atom schemas (List.hd rs))
        (List.tl rs)
    in
    let body = F.And (inner, formula schemas g) in
    F.exists_many (List.concat_map (range_vars schemas) rs) body
  | Trc.Forall (rs, g) ->
    let inner =
      List.fold_left
        (fun acc r -> F.And (acc, range_atom schemas r))
        (range_atom schemas (List.hd rs))
        (List.tl rs)
    in
    let body = F.Implies (inner, formula schemas g) in
    F.forall_many (List.concat_map (range_vars schemas) rs) body

(** Translate a full query.  DRC heads are lists of distinct variables:
    a repeated head field or a constant gets a fresh variable equated to it
    (a constant column is then answered by {!Drc_to_ra.lower}).
    Attributes of free tuple variables that are not in the head get
    existentially quantified. *)
let query schemas (q : Trc.query) : Drc.query =
  ignore (Trc.typecheck schemas q);
  let all_range_vars = List.concat_map (range_vars schemas) q.Trc.ranges in
  (* [c1], [c2], …: never a [var_name], which always holds an underscore *)
  let supply = Diagres_logic.Names.create () in
  let head_vars, head_eqs =
    List.fold_left
      (fun (vs, eqs) t ->
        match t with
        | Trc.Field (v, a) when not (List.mem (var_name v a) vs) ->
          (vs @ [ var_name v a ], eqs)
        | t ->
          let x = Diagres_logic.Names.fresh supply "c" in
          (vs @ [ x ], F.Cmp (F.Eq, F.Var x, term_to_fol t) :: eqs))
      ([], []) q.Trc.head
  in
  let body0 = formula schemas q.Trc.body in
  let body1 =
    List.fold_left
      (fun acc r -> F.And (range_atom schemas r, acc))
      body0 (List.rev q.Trc.ranges)
  in
  (* existentially close every free-range variable that is not in the head *)
  let to_close = List.filter (fun v -> not (List.mem v head_vars)) all_range_vars in
  let body = F.conj (F.exists_many to_close body1 :: List.rev head_eqs) in
  { Drc.head = head_vars; body }

(** Boolean statements translate directly. *)
let sentence schemas (f : Trc.formula) : F.t = formula schemas f
