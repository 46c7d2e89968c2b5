(** Differential evaluation over the physical plan algebra: maintain a
    registered (materialized) query under batched inserts and deletes
    instead of re-running its plan.

    This generalizes the semi-naive delta machinery of the Datalog
    fixpoint ({!Diagres_datalog.Fixpoint}) — which rewrites each rule into
    per-predicate delta variants — to every operator {!Plan} executes.  A
    maintenance round propagates a {e signed set delta} [(Δ⁺, Δ⁻)] from
    the updated base relations to the root, one rule per operator:

    - {b scan}: the normalized delta {!Diagres_data.Database.apply_delta}
      reports for that relation;
    - {b filter} σp: [σp Δ⁺, σp Δ⁻] — stateless; large deltas run the
      vectorized selection kernels via an ephemeral plan node;
    - {b project} π: {e support counts} — a per-view table mapping each
      output tuple to the number of input tuples projecting onto it.
      Under set semantics a delete may not retract an output tuple that
      other inputs still support; an output insert fires on the 0→1
      transition, a retraction on 1→0.  (This is the one operator whose
      output multiplicity is unbounded, hence the one needing real
      counts.)
    - {b hash join}: Δ(L ⋈ R) = ΔL ⋈ R_old ∪ L_new ⋈ ΔR, probed against
      two {e view-owned} key indexes, one per input, which the deltas
      passing through the node keep current: ΔL probes the right index
      (still R_old), ΔL is applied to the left index (now L_new), ΔR
      probes it, and ΔR is applied to the right index.  Each index is
      built once, on the first {!maintain}, from the input result {!init}
      held; every later round costs O(|Δ| · fanout) whichever inputs
      change.  Join outputs are injective in the (left, right) row pair
      (every dropped right key column equals a kept left one), so no
      support counts are needed: the two candidate sets cancel signed
      overlaps by set difference;
    - {b nl join}: the same identity, evaluated by {e ephemeral} join
      nodes over the delta and the maintained inputs ({!Plan.exec_fresh});
    - {b union/intersect/minus}: membership probes of the (small) child
      deltas against the maintained child results — the support count of
      an output tuple is its presence count across the two children, so
      probes decide retraction exactly;
    - {b division}: a divisor delta (or an empty divisor) recomputes the
      node from the maintained children; a dividend-only delta rechecks
      just the candidate groups whose keep-part appears in the delta.

    {b Where state lives.}  All differential state — maintained per-node
    results, projection support counts, hash-join side indexes — belongs
    to the view (this [t]), {e never} to plan nodes: plans are shared
    through the LRU plan cache, and any ad-hoc {!Plan.run} of the same
    plan resets the per-evaluation node memos.  {!init} runs the plan
    once and snapshots every needed node result into the view;
    {!maintain} reads and writes only this view's state plus freshly
    built ephemeral nodes, so concurrent reuse of the registered plan
    cannot corrupt maintenance.  Intermediate
    results are snapshotted only where a rule above reads them
    (nested-loop join and set-op inputs, division, the root); hash-join
    inputs are read only through the node's own side indexes, and pure
    filter/project chains keep no intermediates. *)

module D = Diagres_data
module R = D.Relation
module T = Diagres_telemetry.Telemetry

let c_delta_rows = T.counter "view.delta_rows"
let c_recompute_avoided = T.counter "view.recompute_avoided"
let h_maintain = T.histogram "view.maintain_ns"

(* Support-count tables key on output tuples under Tuple.compare equality
   (Int 2 and Float 2. are the same tuple cell, as everywhere else). *)
module TH = Hashtbl.Make (struct
  type t = D.Tuple.t

  let equal a b = D.Tuple.compare a b = 0

  let hash t =
    Array.fold_left
      (fun acc v -> ((acc * 31) + D.Value.hash v) land max_int)
      17 t
end)

(* One input of a hash-join node: the input result {!init} snapshotted,
   until the first {!maintain} indexes it on the join key and drops it. *)
type side = Pending of R.t | Built of D.Index.t

type state = {
  mutable current : R.t option;
      (** maintained result of this node; [None] for nodes no delta rule
          reads (pure filter/project chains between snapshots) *)
  support : int TH.t option;  (** projection support counts *)
  mutable sides : (side * side) option;
      (** hash-join key indexes on the left ([lkey]) and right ([rkey])
          inputs *)
}

type t = {
  plan : Plan.t;
  states : (int, state) Hashtbl.t;  (** by node id *)
  mutable result : R.t;             (** maintained root result *)
  mutable rounds : int;             (** maintenance rounds applied *)
}

(** One node's contribution to a maintenance round.  [ins]/[del] are
    normalized against the node's previous result: inserts genuinely new,
    deletes genuinely retracted, disjoint.  [old_]/[cur] are the
    maintained results before/after the round, present only for nodes
    whose parents read them. *)
type round = { ins : R.t; del : R.t; old_ : R.t option; cur : R.t option }

type report = { result : R.t; root_inserts : int; root_deletes : int }

(* ---------------- which nodes keep maintained results ---------------- *)

(* A node's maintained result is read by: the root (it *is* the view),
   nested-loop join and set-operation rules (membership probes and delta
   joins against the sibling), and division (its own old result and both
   children).  Relabel derives its result by renaming its child's, so a
   needed relabel needs its child.  Scans always track the base relation
   (sharing the database binding — no extra storage). *)
let mark_needed (root : Plan.t) : (int, unit) Hashtbl.t =
  let needed = Hashtbl.create 16 in
  let rec need (n : Plan.t) =
    if not (Hashtbl.mem needed n.Plan.id) then begin
      Hashtbl.add needed n.Plan.id ();
      match n.Plan.op with Plan.Relabel c -> need c | _ -> ()
    end
  in
  need root;
  Plan.fold_unique
    (fun (n : Plan.t) () ->
      match n.Plan.op with
      | Plan.Scan _ -> need n
      | Plan.Nl_join (_, a, b)
      | Plan.Union (a, b)
      | Plan.Inter (a, b)
      | Plan.Diff (a, b) ->
        need a;
        need b
      | Plan.Division (a, b) ->
        need n;
        need a;
        need b
      | _ -> ())
    root ();
  needed

(* ---------------- initialization ---------------- *)

let proj_of idx (t : D.Tuple.t) = Array.map (fun i -> t.(i)) idx

let bump tb u k =
  let c = (match TH.find_opt tb u with Some c -> c | None -> 0) + k in
  if c = 0 then TH.remove tb u else TH.replace tb u c;
  c

(** Run the plan once (through {!Plan.run}, so the per-node memos are
    freshly filled) and snapshot the node results, projection support
    counts and hash-join inputs into view-owned state. *)
let init (plan : Plan.t) : t =
  let result = Plan.run plan in
  let needed = mark_needed plan in
  let states = Hashtbl.create 32 in
  Plan.fold_unique
    (fun (n : Plan.t) () ->
      let cached c =
        match c.Plan.cache with
        | Some r -> r
        | None -> assert false (* Plan.run executed every reachable node *)
      in
      let support =
        match n.Plan.op with
        | Plan.Project (idx, c) ->
          let tb = TH.create 64 in
          R.iter (fun tup -> ignore (bump tb (proj_of idx tup) 1)) (cached c);
          Some tb
        | _ -> None
      in
      let sides =
        match n.Plan.op with
        | Plan.Hash_join j ->
          Some (Pending (cached j.Plan.left), Pending (cached j.Plan.right))
        | _ -> None
      in
      Hashtbl.add states n.Plan.id
        { current =
            (if Hashtbl.mem needed n.Plan.id then Some (cached n) else None);
          support; sides })
    plan ();
  { plan; states; result; rounds = 0 }

let result (t : t) = t.result
let rounds (t : t) = t.rounds

(* ---------------- ephemeral delta nodes ---------------- *)

(* Delta plans are assembled from *fresh* nodes wrapping the delta and
   maintained relations, and executed with Plan.exec_fresh: they never
   alias the registered plan's nodes, so its per-evaluation memos — which
   any plan-cache user may reset at any time — stay irrelevant here. *)

let unit_dist (schema : D.Schema.t) = Array.make (D.Schema.arity schema) 1.

let scan_of (r : R.t) : Plan.t =
  Plan.mk
    (Plan.Scan ("delta", r))
    (R.schema r)
    (float_of_int (R.cardinality r))
    (unit_dist (R.schema r))

(* σp over a delta; a delta that clears the vectorized threshold runs the
   columnar selection kernels unchanged (delta batches are ordinary
   canonical batches). *)
let run_filter (schema : D.Schema.t) (p : Plan.pred) (rel : R.t) : R.t =
  if R.is_empty rel then rel
  else if !Plan.columnar_enabled && R.cardinality rel >= !Plan.vec_threshold
  then begin
    let node = Plan.mk (Plan.Filter (p, scan_of rel)) schema 0. (unit_dist schema) in
    node.Plan.vec <- true;
    Plan.exec_fresh node
  end
  else R.filter p.Plan.holds rel

(* ΔA × B (or A × ΔB), filtered during enumeration — cost is the product
   of the two sides either way, so no swapping is needed. *)
let nl_join_delta (n : Plan.t) (p : Plan.pred option) (da : R.t) (rb : R.t) :
    R.t =
  if R.is_empty da || R.is_empty rb then R.empty n.Plan.schema
  else
    Plan.exec_fresh
      (Plan.mk
         (Plan.Nl_join (p, scan_of da, scan_of rb))
         n.Plan.schema 0. (unit_dist n.Plan.schema))

(* ---------------- maintenance ---------------- *)

let empty_of (n : Plan.t) = R.empty n.Plan.schema

(* Signed cancellation: a tuple may surface as both an insert and a
   delete candidate (e.g. a join pair built from a new left and a deleted
   right row); the net delta is the set difference each way. *)
let combine_signed ins del =
  if R.is_empty ins || R.is_empty del then (ins, del)
  else (R.diff ins del, R.diff del ins)

let runion a b =
  if R.is_empty a then b else if R.is_empty b then a else R.union a b

(* Membership in a sibling's *previous* result, reconstructed from its
   round (new result minus its inserts, plus its deletes). *)
let mem_in_old tup (r : round) =
  (R.mem tup (Option.get r.cur) && not (R.mem tup r.ins))
  || R.mem tup r.del

let mem_in_cur tup (r : round) = R.mem tup (Option.get r.cur)

(* A hash-join side's key index, built from the snapshotted input on the
   node's first round. *)
let side_index positions = function
  | Built ix -> ix
  | Pending r -> D.Index.build positions (fun f -> R.iter f r)

(* Child deltas arrive normalized (inserts new, deletes present), so
   applying them keeps a side index exact. *)
let apply_to ix (r : round) =
  R.iter (D.Index.remove ix) r.del;
  R.iter (D.Index.insert ix) r.ins

let maintain (t : t) (updates : (string * R.t * R.t * R.t) list) : report =
  let t0 = T.now_ns () in
  let by_name = Hashtbl.create 8 in
  List.iter
    (fun (name, rel, ins, del) -> Hashtbl.replace by_name name (rel, ins, del))
    updates;
  let state (n : Plan.t) = Hashtbl.find t.states n.Plan.id in
  let memo : (int, round) Hashtbl.t = Hashtbl.create 32 in
  let rec go (n : Plan.t) : round =
    match Hashtbl.find_opt memo n.Plan.id with
    | Some r -> r
    | None ->
      let r = step n in
      Hashtbl.add memo n.Plan.id r;
      r
  (* Fold the computed delta into the node's maintained result (when one
     is kept), taking the re-normalized deltas as this round's official
     ones — parents then see deltas exact w.r.t. the maintained state by
     construction, not just by the rule's correctness argument. *)
  and finalize (n : Plan.t) ((ins, del) : R.t * R.t) : round =
    let st = state n in
    match st.current with
    | None -> { ins; del; old_ = None; cur = None }
    | Some old_ ->
      let cur, ins', del' = R.apply_delta ~inserts:ins ~deletes:del old_ in
      st.current <- Some cur;
      { ins = ins'; del = del'; old_ = Some old_; cur = Some cur }
  and step (n : Plan.t) : round =
    match n.Plan.op with
    | Plan.Empty ->
      { ins = empty_of n; del = empty_of n; old_ = None; cur = None }
    | Plan.Scan (name, _) ->
      let st = state n in
      let old_ = Option.get st.current in
      (match Hashtbl.find_opt by_name name with
      | None ->
        { ins = R.empty (R.schema old_); del = R.empty (R.schema old_);
          old_ = Some old_; cur = Some old_ }
      | Some (rel, ins, del) ->
        st.current <- Some rel;
        { ins; del; old_ = Some old_; cur = Some rel })
    | Plan.Filter (p, c) ->
      let rc = go c in
      finalize n
        (run_filter n.Plan.schema p rc.ins, run_filter n.Plan.schema p rc.del)
    | Plan.Project (idx, c) ->
      let rc = go c in
      let tb = Option.get (state n).support in
      (* order-independent: remember each touched output's pre-round
         count, then classify by the (before, after) sign pair *)
      let before = TH.create 16 in
      let touch u =
        if not (TH.mem before u) then
          TH.add before u
            (match TH.find_opt tb u with Some c -> c | None -> 0)
      in
      R.iter
        (fun tup ->
          let u = proj_of idx tup in
          touch u;
          ignore (bump tb u 1))
        rc.ins;
      R.iter
        (fun tup ->
          let u = proj_of idx tup in
          touch u;
          ignore (bump tb u (-1)))
        rc.del;
      let ins = ref [] and del = ref [] in
      TH.iter
        (fun u was ->
          let now = match TH.find_opt tb u with Some c -> c | None -> 0 in
          if was = 0 && now > 0 then ins := u :: !ins
          else if was > 0 && now = 0 then del := u :: !del)
        before;
      finalize n
        (R.of_tuples n.Plan.schema !ins, R.of_tuples n.Plan.schema !del)
    | Plan.Relabel c ->
      let rc = go c in
      let names = D.Schema.names n.Plan.schema in
      let rn = R.rename_all names in
      let st = state n in
      let old_ = Option.map rn rc.old_ and cur = Option.map rn rc.cur in
      if Option.is_some st.current then st.current <- cur;
      { ins = rn rc.ins; del = rn rc.del; old_; cur }
    | Plan.Hash_join j ->
      let rl = go j.Plan.left and rr = go j.Plan.right in
      let st = state n in
      let rkey = Array.of_list j.Plan.rkey in
      let lix, rix =
        match st.sides with
        | Some (l, r) -> (side_index j.Plan.lkey l, side_index rkey r)
        | None -> assert false (* init gave every hash join its sides *)
      in
      st.sides <- Some (Built lix, Built rix);
      let emit ta tb acc =
        let out =
          D.Tuple.concat ta (Array.map (D.Tuple.get tb) j.Plan.right_rest)
        in
        match j.Plan.residual with
        | Some p when not (p.Plan.holds out) -> acc
        | _ -> out :: acc
      in
      (* every [delta] row probes [ix] on its own key [positions] *)
      let probe ix positions pair delta acc =
        R.fold
          (fun d acc ->
            List.fold_left
              (fun acc m -> pair d m acc)
              acc
              (D.Index.lookup ix (D.Index.key positions d)))
          delta acc
      in
      (* Δ(L ⋈ R) = ΔL ⋈ R_old ∪ L_new ⋈ ΔR: ΔL probes the right index
         before ΔR reaches it, ΔR probes the left index after ΔL has *)
      let left_delta = probe rix j.Plan.lkey emit in
      let right_delta = probe lix rkey (fun tb ta -> emit ta tb) in
      let ins = left_delta rl.ins [] and del = left_delta rl.del [] in
      apply_to lix rl;
      let ins = right_delta rr.ins ins and del = right_delta rr.del del in
      apply_to rix rr;
      finalize n
        (combine_signed
           (R.of_tuples n.Plan.schema ins)
           (R.of_tuples n.Plan.schema del))
    | Plan.Nl_join (p, a, b) ->
      let ra = go a and rb = go b in
      let b_old = Option.get rb.old_ and a_cur = Option.get ra.cur in
      let ins_cand =
        runion (nl_join_delta n p ra.ins b_old) (nl_join_delta n p a_cur rb.ins)
      in
      let del_cand =
        runion (nl_join_delta n p ra.del b_old) (nl_join_delta n p a_cur rb.del)
      in
      finalize n (combine_signed ins_cand del_cand)
    | Plan.Union (a, b) ->
      let ra = go a and rb = go b in
      (* an insert is new to the union iff the sibling didn't already
         hold it; a delete retracts iff the sibling no longer holds it —
         the support count of an output tuple is its presence count
         across the two children, probed rather than stored *)
      let ins =
        runion
          (R.filter (fun tup -> not (mem_in_old tup rb)) ra.ins)
          (R.filter (fun tup -> not (mem_in_old tup ra)) rb.ins)
      in
      let del =
        runion
          (R.filter (fun tup -> not (mem_in_cur tup rb)) ra.del)
          (R.filter (fun tup -> not (mem_in_cur tup ra)) rb.del)
      in
      finalize n (ins, del)
    | Plan.Inter (a, b) ->
      let ra = go a and rb = go b in
      let ins =
        runion
          (R.filter (fun tup -> mem_in_cur tup rb) ra.ins)
          (R.filter (fun tup -> mem_in_cur tup ra) rb.ins)
      in
      let del =
        runion
          (R.filter (fun tup -> mem_in_old tup rb) ra.del)
          (R.filter (fun tup -> mem_in_old tup ra) rb.del)
      in
      finalize n (ins, del)
    | Plan.Diff (a, b) ->
      let ra = go a and rb = go b in
      let ins =
        runion
          (R.filter (fun tup -> not (mem_in_cur tup rb)) ra.ins)
          (R.filter (fun tup -> mem_in_cur tup ra) rb.del)
      in
      let del =
        runion
          (R.filter (fun tup -> not (mem_in_old tup rb)) ra.del)
          (R.filter (fun tup -> mem_in_old tup ra) rb.ins)
      in
      finalize n (ins, del)
    | Plan.Division (a, b) ->
      let ra = go a and rb = go b in
      let st = state n in
      let old_ = Option.get st.current in
      let a_cur = Option.get ra.cur and b_cur = Option.get rb.cur in
      if
        (not (R.is_empty rb.ins && R.is_empty rb.del)) || R.is_empty b_cur
      then begin
        (* divisor changed (or is empty, where every dividend group
           qualifies): recompute this node from the maintained children —
           divisors are typically small and rarely updated *)
        let cur = R.division a_cur b_cur in
        st.current <- Some cur;
        { ins = R.diff cur old_; del = R.diff old_ cur;
          old_ = Some old_; cur = Some cur }
      end
      else begin
        (* dividend-only delta: recheck exactly the candidate groups
           whose keep-part appears in the delta *)
        let a_schema = a.Plan.schema in
        let keep_pos =
          Array.of_list
            (List.map
               (fun nm -> D.Schema.index nm a_schema)
               (D.Schema.names n.Plan.schema))
        in
        let div_pos =
          Array.of_list
            (List.map
               (fun nm -> D.Schema.index nm a_schema)
               (D.Schema.names b.Plan.schema))
        in
        let arity_a = D.Schema.arity a_schema in
        let proj_keep = R.map n.Plan.schema (proj_of keep_pos) in
        let cands = runion (proj_keep ra.ins) (proj_keep ra.del) in
        let compose c u =
          let arr = Array.make arity_a D.Value.Null in
          Array.iteri (fun i p -> arr.(p) <- c.(i)) keep_pos;
          Array.iteri (fun k p -> arr.(p) <- u.(k)) div_pos;
          arr
        in
        let in_new c = R.for_all (fun u -> R.mem (compose c u) a_cur) b_cur in
        let ins = R.filter (fun c -> (not (R.mem c old_)) && in_new c) cands in
        let del = R.filter (fun c -> R.mem c old_ && not (in_new c)) cands in
        let cur, ins', del' = R.apply_delta ~inserts:ins ~deletes:del old_ in
        st.current <- Some cur;
        { ins = ins'; del = del'; old_ = Some old_; cur = Some cur }
      end
  in
  let root_round =
    T.with_span ~cat:"view" "view.maintain" (fun () -> go t.plan)
  in
  t.result <- Option.get root_round.cur;
  t.rounds <- t.rounds + 1;
  let root_inserts = R.cardinality root_round.ins
  and root_deletes = R.cardinality root_round.del in
  T.add c_delta_rows (root_inserts + root_deletes);
  T.incr c_recompute_avoided;
  T.observe h_maintain (Int64.to_float (Int64.sub (T.now_ns ()) t0));
  { result = t.result; root_inserts; root_deletes }

(* ---------------- memory accounting ---------------- *)

(** Estimated bytes of the view's differential state: the maintained root
    result, every snapshotted intermediate, the projection support-count
    tables (keys plus table cells), and the hash-join side indexes with
    the tuples they hold (or the input snapshot a side still waits to
    index) — the substrate of the [memory_bytes.delta_state] gauge.  The
    plan itself is shared with the plan cache and not counted here. *)
let memory_bytes (t : t) : int =
  let word = 8 in
  let support_bytes tb =
    TH.fold
      (fun k _ acc -> acc + D.Tuple.memory_bytes k + (5 * word))
      tb 0
  in
  let state_bytes _ (st : state) acc =
    let cur =
      match st.current with Some r -> R.memory_bytes r | None -> 0
    in
    let sup = match st.support with Some tb -> support_bytes tb | None -> 0 in
    let side = function
      | Pending r -> R.memory_bytes r
      | Built ix -> D.Index.memory_bytes ~tuples:true ix
    in
    let sides =
      match st.sides with Some (l, r) -> side l + side r | None -> 0
    in
    acc + cur + sup + sides
  in
  R.memory_bytes t.result + Hashtbl.fold state_bytes t.states 0
