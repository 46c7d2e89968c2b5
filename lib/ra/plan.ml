(** Physical query plans: the execution half of the logical/physical split.

    A plan is a DAG of physical operators produced by {!Planner} from an
    optimized {!Ast.t}.  Three things distinguish it from the tree-walking
    reference evaluator ({!Eval.eval}):

    - {b compiled predicates} — selection and join predicates are compiled
      once into closures over resolved attribute {e positions}; no
      per-tuple attribute-name lookup survives into the inner loops;
    - {b hash equi-joins} — equality conjuncts probe the per-relation
      cached hash indexes ({!Diagres_data.Relation.matching}) instead of
      filtering a materialized cartesian product;
    - {b shared-subtree memoization} — structurally equal subexpressions
      are hash-consed to a single node whose result is computed once and
      served from cache afterwards ([evals]/[hits] count both, which the
      tests pin).

    Every node carries its estimated cardinality; after execution the
    actual cardinality is available from the cached result, which is what
    [qviz --explain] prints as [est=… actual=…].

    The hot operators additionally have {b morsel-parallel} execution
    paths over the shared domain pool ({!Diagres_pool.Pool}): inputs above
    {!par_threshold} tuples are split into fixed-size chunks evaluated
    across the pool — filters and projections chunk their input, the hash
    join runs a partitioned parallel build and a parallel probe, and the
    set operations chunk the membership side.  Every parallel path merges
    its per-chunk results through {!D.Relation.of_tuples}, whose sorted-set
    construction restores the [Relation.tuples] ordering contract, so the
    result is {e identical} to the sequential path at any domain count
    (property-tested).  Below the threshold — or with a pool of size 1 —
    the sequential code runs unchanged and small catalog queries pay no
    overhead. *)

module D = Diagres_data
module Pool = Diagres_pool.Pool
module T = Diagres_telemetry.Telemetry

(** A compiled predicate with its display string (for explain output) and
    its source AST (recompiled into a vectorized bitmap filler when the
    operator runs columnar). *)
type pred = { display : string; holds : D.Tuple.t -> bool; ast : Ast.pred }

type t = {
  id : int;                             (** stable id, used by explain *)
  op : op;
  schema : D.Schema.t;                  (** output schema *)
  est : float;                          (** estimated output rows *)
  est_distinct : float array;           (** estimated distinct per column *)
  mutable cache : D.Relation.t option;  (** memo: result of the first exec *)
  mutable evals : int;                  (** times the result was computed *)
  mutable hits : int;                   (** times served from the memo *)
  mutable actual_ns : int64;
      (** wall time of the last compute, children included; -1 = untimed *)
  mutable actual_alloc : float;
      (** bytes allocated by the last compute on the executing domain,
          children included; -1 = untracked (alloc tracking off) *)
  mutable detail : (string * int) list;
      (** operator-specific measurements from the last traced compute:
          [build_ns]/[probe_ns] for hash joins, [morsels] for the
          parallel paths, [vec]/[batches] for the vectorized paths *)
  mutable vec : bool;
      (** planner's choice: take the vectorized (columnar) execution path
          instead of the row kernels; set by {!mark_vectorized} from the
          estimated input size *)
  mutable fuse : bool;
      (** planner's choice: this filter/projection emits a {e deferred
          selection view} (no gather) because every consumer — or nobody,
          for the plan root — reads views natively; set by
          {!mark_fusable} *)
}

and op =
  | Scan of string * D.Relation.t       (** base relation *)
  | Empty                               (** ∅ with a known schema *)
  | Filter of pred * t                  (** compiled σ *)
  | Project of int array * t            (** positional π (also reordering) *)
  | Relabel of t                        (** ρ: schema-only renaming *)
  | Hash_join of hash_join              (** equi-join via cached indexes *)
  | Nl_join of pred option * t * t      (** ×, filtered during enumeration *)
  | Union of t * t
  | Inter of t * t
  | Diff of t * t
  | Division of t * t

and hash_join = {
  left : t;
  right : t;
  lkey : int array;       (** key positions in the left input *)
  rkey : int list;        (** matching key positions in the right input *)
  right_rest : int array; (** right positions appended to the output *)
  residual : pred option; (** non-equality leftovers, over the output *)
}

(* ---------------- predicate compilation ---------------- *)

let compile_operand schema = function
  | Ast.Const v -> fun _ -> v
  | Ast.Attr a ->
    let i = D.Schema.index a schema in
    fun t -> D.Tuple.get t i

(** Compile a predicate against [schema]: attribute positions are resolved
    here, once, so the returned closure does only array reads. *)
let rec compile schema = function
  | Ast.Cmp (op, a, b) ->
    let fa = compile_operand schema a and fb = compile_operand schema b in
    let cmp = Diagres_logic.Fol.cmp_eval op in
    fun t -> cmp (fa t) (fb t)
  | Ast.And (p, q) ->
    let fp = compile schema p and fq = compile schema q in
    fun t -> fp t && fq t
  | Ast.Or (p, q) ->
    let fp = compile schema p and fq = compile schema q in
    fun t -> fp t || fq t
  | Ast.Not p ->
    let fp = compile schema p in
    fun t -> not (fp t)
  | Ast.Ptrue -> fun _ -> true

let compile_pred schema p : pred =
  { display = Pretty.pred_to_string p; holds = compile schema p; ast = p }

(* ---------------- node construction ---------------- *)

let node_counter = ref 0

let mk op schema est est_distinct : t =
  incr node_counter;
  { id = !node_counter; op; schema; est = Float.max 0. est; est_distinct;
    cache = None; evals = 0; hits = 0; actual_ns = -1L;
    actual_alloc = -1.; detail = []; vec = false; fuse = false }

(* ---------------- parallel execution helpers ---------------- *)

(** Minimum input cardinality before an operator takes its parallel path.
    Mutable so the differential tests can force the parallel operators on
    tiny relations; the default keeps small catalog queries sequential. *)
let par_threshold = ref 2048

(** Morsel size: tuples per chunk handed to a pool worker. *)
let morsel_size = ref 1024

let parallel_for n = Pool.size () > 1 && n >= !par_threshold

(* Chunk size that keeps every worker busy even on inputs smaller than a
   full morsel — at least 4 chunks per domain, capped at the morsel size. *)
let chunk_for len =
  max 1 (min !morsel_size ((len + (4 * Pool.size ()) - 1) / (4 * Pool.size ())))

(* Per-chunk filter keeping input (= sorted) order. *)
let chunk_filter holds sub =
  Array.fold_right (fun t acc -> if holds t then t :: acc else acc) sub []

(* Merge per-chunk tuple lists into a relation; the sorted-set constructor
   re-establishes the ordering contract whatever order chunks produced. *)
let merge_chunks schema (chunks : D.Tuple.t list array) : D.Relation.t =
  D.Relation.of_tuples schema (List.concat (Array.to_list chunks))

(* ---------------- columnar execution knobs ---------------- *)

(** Minimum estimated input rows before the planner marks an operator
    vectorized — below this, forcing the columnar view costs more than the
    tight loops save.  Read when a plan is built (and when {!Delta} builds
    its ephemeral delta filters), never by a running plan.  Mutable so the
    differential tests can force the vectorized operators on tiny
    relations ([0]) or pin a plan to the row kernels ([max_int]). *)
let vec_threshold = ref 256

(** Rows per vectorized batch: the unit the selection kernels and the
    parallel probe chunk over.  Mutable so the tests can force batch
    boundaries on tiny inputs.  (The filter rounds this up to a multiple
    of 63 so parallel batches write disjoint bitmap words.) *)
let batch_rows = ref 4096

let c_batches = T.counter "columnar.batches"
let c_rows = T.counter "columnar.rows"
let c_fallback = T.counter "columnar.fallback_row_mode"

(* Number of build partitions for the parallel hash join: a power of two
   (cheap masking) with enough slack that partition skew leaves no domain
   idle. *)
let partition_count () =
  let target = 2 * Pool.size () in
  let rec pow2 n = if n >= target then n else pow2 (2 * n) in
  pow2 1

(* ---------------- execution ---------------- *)

let children n =
  match n.op with
  | Scan _ | Empty -> []
  | Filter (_, c) | Project (_, c) | Relabel c -> [ c ]
  | Hash_join j -> [ j.left; j.right ]
  | Nl_join (_, a, b) | Union (a, b) | Inter (a, b) | Diff (a, b)
  | Division (a, b) ->
    [ a; b ]

(* Short operator kind, the span name for traced node computations. *)
let op_kind n =
  match n.op with
  | Scan _ -> "op.scan"
  | Empty -> "op.empty"
  | Filter _ -> "op.filter"
  | Project _ -> "op.project"
  | Relabel _ -> "op.rename"
  | Hash_join _ -> "op.hash-join"
  | Nl_join _ -> "op.nl-join"
  | Union _ -> "op.union"
  | Inter _ -> "op.intersect"
  | Diff _ -> "op.minus"
  | Division _ -> "op.divide"

(* [timed_if f]: (elapsed ns, result of [f]) when tracing is enabled,
   (0, result) — no clock reads — otherwise. *)
let timed_if f =
  if not (T.enabled ()) then (0, f ())
  else begin
    let t0 = T.now_ns () in
    let r = f () in
    (Int64.to_int (Int64.sub (T.now_ns ()) t0), r)
  end

(* record the morsel count of a parallel path on the node *)
let note_morsels n len chunk =
  if T.enabled () then
    n.detail <- ("morsels", (len + chunk - 1) / max 1 chunk) :: n.detail

(* ---------------- vectorized operators ---------------- *)

(* Run [f lo len] over the row range [0, nrows) in batches of [!batch_rows]
   (rounded up to a multiple of [align]), through the domain pool when the
   input clears the parallel threshold.  Returns per-batch results in
   range order; counts the batch/row telemetry. *)
let vec_batches ?(align = 1) nrows (f : int -> int -> 'a) : 'a array =
  let chunk = max 1 !batch_rows in
  let chunk = (chunk + align - 1) / align * align in
  let nchunks = max 1 ((nrows + chunk - 1) / chunk) in
  T.add c_batches nchunks;
  T.add c_rows nrows;
  let run k =
    let lo = k * chunk in
    f lo (min chunk (nrows - lo))
  in
  if parallel_for nrows && nchunks > 1 then
    Pool.run_all (Array.init nchunks (fun k () -> run k))
  else Array.init nchunks run

let concat_ints (parts : int array array) : int array =
  let total = Array.fold_left (fun acc s -> acc + Array.length s) 0 parts in
  let out = Array.make total 0 in
  let off = ref 0 in
  Array.iter
    (fun s ->
      Array.blit s 0 out !off (Array.length s);
      off := !off + Array.length s)
    parts;
  out

(* σ as a word-bitmap pass: compile the predicate into a bitmap filler
   once, run it batch by batch into one full-length bitmap, and either
   emit a deferred selection view (a fusable node — late materialization:
   no gather at all) or gather the surviving rows here (a node whose
   consumer needs a batch).  A filter over a pending view
   never gathers its input either: it runs the filler over the view's
   base batch and ANDs the two bitmaps, so chains of filters fuse into
   one bitmap with no intermediate materialization.  A selection from a
   canonical batch keeps canonical order, so the result relation is built
   without re-sorting; a predicate passing every row returns the input
   relation unchanged (and shares its caches). *)
let vec_filter n (p : pred) (r : D.Relation.t) : D.Relation.t =
  let base, prior =
    match D.Relation.view_parts r with
    | Some (base, bits, canonical, _) -> (base, Some (bits, canonical))
    | None -> (D.Relation.batch r, None)
  in
  let nrows = D.Batch.nrows base in
  let filler = Vector.compile_pred base n.schema p.ast in
  let nw = D.Column.words_for nrows in
  (* every batch writes its own disjoint word range of one full-length
     bitmap (batches are 63-row aligned, so ranges never straddle a word;
     safe from several domains), and the count / selection / gather run
     once over the whole relation.  The bitmap escapes into the result
     view when the node is fusable; otherwise it is per-domain pooled scratch and
     steady-state filters allocate nothing here. *)
  let with_bits k =
    if n.fuse then k (Array.make nw 0)
    else D.Column.Scratch.with_words ~len:nrows k
  in
  with_bits @@ fun bits ->
  let parts =
    vec_batches ~align:D.Column.bits_per_word nrows (fun lo len ->
        D.Column.Scratch.with_words ~len (fun window ->
            filler ~lo ~len window;
            Array.blit window 0 bits
              (lo / D.Column.bits_per_word)
              (D.Column.words_for len)))
  in
  (* a pending input selection fuses by AND — never mutating the input's
     bitmap, which other consumers of the shared node may still read *)
  let prior_canonical =
    match prior with
    | Some (pbits, canonical) ->
      D.Column.wand bits pbits nw;
      canonical
    | None -> true
  in
  let count = D.Column.count_bits bits ~len:nrows in
  if T.enabled () then
    n.detail <-
      ("sel_rows", count) :: ("vec", 1)
      :: ("batches", Array.length parts) :: n.detail;
  if count = nrows then r (* every base row passes: input unchanged *)
  else if count = 0 then D.Relation.empty n.schema
  else if n.fuse then begin
    if T.enabled () then n.detail <- ("deferred", 1) :: n.detail;
    D.Relation.of_view ~canonical:prior_canonical ~count n.schema base bits
  end
  else begin
    let g = D.Batch.gather_bits base bits in
    if prior_canonical then D.Relation.of_batch ~canonical:true n.schema g
    else D.Relation.of_batch n.schema g
  end

(* π with late materialization: the kept columns are re-labeled zero-copy
   ([Batch.columns] shares the column arrays); only the canonicalizing
   sort-dedup of the *kept* columns touches data — dropped columns are
   never read.  A projection of a pending view stays a view over the
   column subset, sharing the bitmap; it is marked non-canonical (dropping
   columns can introduce duplicates), so the dedup happens at whoever
   finally materializes — by then the selection has been fully fused. *)
let vec_project n idx (r : D.Relation.t) : D.Relation.t =
  match D.Relation.view_parts r with
  | Some (base, bits, _, count) ->
    let kept = D.Batch.columns base idx in
    T.add c_batches 1;
    T.add c_rows count;
    if n.fuse then begin
      if T.enabled () then
        n.detail <-
          ("sel_rows", count) :: ("deferred", 1) :: ("vec", 1) :: n.detail;
      D.Relation.of_view ~canonical:false ~count n.schema kept bits
    end
    else begin
      if T.enabled () then n.detail <- ("vec", 1) :: n.detail;
      D.Relation.of_batch n.schema (D.Batch.gather_bits kept bits)
    end
  | None ->
    let b = D.Relation.batch r in
    T.add c_batches 1;
    T.add c_rows (D.Batch.nrows b);
    if T.enabled () then n.detail <- ("vec", 1) :: n.detail;
    D.Relation.of_batch n.schema (D.Batch.columns b idx)

(* Hash join on unboxed int key columns (ints, bools, dictionary codes —
   [Column.join_codes] translates the build side's dictionary into the
   probe side's code space, so code equality is value equality).  Build is
   an int-keyed row index over the right side; probe emits (left row,
   right row) index pairs batch by batch through the pool; the output is
   assembled by gathering left columns and the right rest columns over
   those pairs, with the residual predicate running vectorized over the
   assembled batch.  Inputs that arrive as {e canonical pending views}
   (deferred selections) are joined {e through} their selection vectors —
   build hashes only the selected right rows, probe walks only the
   selected left rows, and neither side is ever gathered; non-canonical
   views materialize first (the canonicity argument below needs sorted
   duplicate-free inputs).  [None] when some key pair has no unboxed code
   view (floats, mixed-kind columns) — the caller then takes the row
   path. *)
let vec_hash_join n (j : hash_join) lr rr : D.Relation.t option =
  let lb, lsel =
    match D.Relation.view_sel lr with
    | Some (base, sel) -> (base, Some sel)
    | None -> (D.Relation.batch lr, None)
  in
  let rb, rsel =
    match D.Relation.view_sel rr with
    | Some (base, sel) -> (base, Some sel)
    | None -> (D.Relation.batch rr, None)
  in
  let lcols = D.Batch.cols lb and rcols = D.Batch.cols rb in
  let rkey = Array.of_list j.rkey in
  let nk = Array.length j.lkey in
  let pairs =
    Array.init nk (fun k ->
        D.Column.join_codes lcols.(j.lkey.(k)) rcols.(rkey.(k)))
  in
  if nk = 0 || Array.exists Option.is_none pairs then None
  else begin
    let probes = Array.map (fun p -> fst (Option.get p)) pairs in
    let builds = Array.map (fun p -> snd (Option.get p)) pairs in
    (* build/probe domains: positions in the selection vector when the
       input is a pending view, base rows otherwise.  Both selection
       vectors ascend, so iterating positions in order still visits base
       rows in order — the canonicity argument below survives unchanged. *)
    let build_n, build_row =
      match rsel with
      | Some s -> (Array.length s, fun k -> Array.unsafe_get s k)
      | None -> (D.Batch.nrows rb, fun k -> k)
    in
    let probe_n, probe_row =
      match lsel with
      | Some s -> (Array.length s, fun i -> Array.unsafe_get s i)
      | None -> (D.Batch.nrows lb, fun i -> i)
    in
    (* single-key joins (the common case) keep the key an unboxed int end
       to end; multi-key joins pay one small key array per row.
       [iter_matches] takes and yields *base* row indices. *)
    let build_ns, iter_matches =
      timed_if (fun () ->
          if nk = 1 then begin
            let probe = probes.(0) and build = builds.(0) in
            let tbl =
              D.Index.build_int1_rows ~n:build_n (fun k ->
                  build (build_row k))
            in
            match rsel with
            | None -> fun i f -> D.Index.iter_int1_rows tbl (probe i) f
            | Some s ->
              fun i f ->
                D.Index.iter_int1_rows tbl (probe i) (fun k ->
                    f (Array.unsafe_get s k))
          end
          else begin
            let lkeyf i = Array.init nk (fun k -> probes.(k) i) in
            let rkeyf k =
              let jrow = build_row k in
              Array.init nk (fun c -> builds.(c) jrow)
            in
            let tbl = D.Index.build_int_rows ~n:build_n rkeyf in
            match rsel with
            | None ->
              fun i f -> List.iter f (D.Index.lookup_int_rows tbl (lkeyf i))
            | Some s ->
              fun i f ->
                List.iter
                  (fun k -> f (Array.unsafe_get s k))
                  (D.Index.lookup_int_rows tbl (lkeyf i))
          end)
    in
    let probe_ns, (li, ri) =
      timed_if @@ fun () ->
      let parts =
        vec_batches probe_n (fun lo len ->
            let cap = ref (max 16 len) in
            let li = ref (Array.make !cap 0)
            and ri = ref (Array.make !cap 0) in
            let cnt = ref 0 in
            for pos = lo to lo + len - 1 do
              let i = probe_row pos in
              iter_matches i (fun jrow ->
                  if !cnt = !cap then begin
                    cap := 2 * !cap;
                    let li' = Array.make !cap 0 and ri' = Array.make !cap 0 in
                    Array.blit !li 0 li' 0 !cnt;
                    Array.blit !ri 0 ri' 0 !cnt;
                    li := li';
                    ri := ri'
                  end;
                  !li.(!cnt) <- i;
                  !ri.(!cnt) <- jrow;
                  incr cnt)
            done;
            (Array.sub !li 0 !cnt, Array.sub !ri 0 !cnt))
      in
      ( concat_ints (Array.map fst parts),
        concat_ints (Array.map snd parts) )
    in
    let out_cols =
      Array.append
        (Array.map (fun c -> D.Column.gather c li) lcols)
        (Array.map (fun rpos -> D.Column.gather rcols.(rpos) ri) j.right_rest)
    in
    let out_b = D.Batch.make ~nrows:(Array.length li) out_cols in
    let out_b =
      match j.residual with
      | None -> out_b
      | Some p ->
        let filler = Vector.compile_pred out_b n.schema p.ast in
        let m = D.Batch.nrows out_b in
        D.Column.Scratch.with_words ~len:m (fun bits ->
            filler ~lo:0 ~len:m bits;
            let sel = D.Column.sel_of_bits bits ~lo:0 ~len:m in
            if Array.length sel = m then out_b else D.Batch.gather out_b sel)
    in
    if T.enabled () then
      n.detail <-
        [ ("build_ns", build_ns); ("probe_ns", probe_ns); ("vec", 1) ];
    (* The output is canonical by construction, so the sort-dedup (and even
       its is-canonical scan) is skipped.  Argument: the probe walks left
       rows ascending and the index yields matching right rows ascending,
       so output rows are ordered by (left row, right row); left input is
       canonical (strictly ascending), and within one left row the matched
       right tuples share the key columns, hence sort by their rest columns
       — which appear after the left columns, in right-side order, in
       [out_cols].  Rows are distinct because (left, right) row pairs are,
       and equal-keyed right tuples differ in their rest columns.  The
       residual selection keeps a subsequence, which preserves both. *)
    Some (D.Relation.of_batch ~canonical:true n.schema out_b)
  end

(* Set operations over two canonical batches: a single linear merge
   (Batch.merge_union and friends), no hashing and no boxing.  Outputs are
   canonical by
   construction — a union interleaves two sorted duplicate-free row
   sequences, intersection and difference keep subsequences of the left
   one. *)
let vec_setop n (merge : D.Batch.t -> D.Batch.t -> D.Batch.t) ra rb :
    D.Relation.t =
  let ba = D.Relation.batch ra and bb = D.Relation.batch rb in
  T.add c_batches 2;
  T.add c_rows (D.Batch.nrows ba + D.Batch.nrows bb);
  if T.enabled () then n.detail <- ("vec", 1) :: n.detail;
  D.Relation.of_batch ~canonical:true n.schema (merge ba bb)

(* ÷ as a sorted-group merge: reorder the dividend's columns to
   (keep, divisor-in-divisor-order) — zero-copy — and canonicalize once;
   the rows then cluster into keep-groups, and within one group the
   divisor suffix ascends exactly like the canonical divisor batch does
   (same columns, same comparator).  One linear two-pointer merge per
   group decides containment; winners are the groups whose merge consumes
   the whole divisor.  No hashing, no boxing, and [Column.cmp2] keeps
   dictionary-vs-dictionary comparisons on int ranks.  The winners' first
   rows form an ascending distinct selection over the sorted batch, so
   the output is canonical by construction.  Unlike the join kernels this
   never needs a row fallback: cmp2 falls back to decoded Value.compare
   per column pair, which is still the exact row semantics. *)
let vec_division n (a : t) (b : t) (ra : D.Relation.t) (rb : D.Relation.t) :
    D.Relation.t =
  (* division is a pipeline breaker: both inputs materialize *)
  let bb = D.Relation.batch rb in
  let keep_names = D.Schema.names n.schema in
  let ia_keep =
    Array.of_list (List.map (fun nm -> D.Schema.index nm a.schema) keep_names)
  in
  let nk = Array.length ia_keep in
  let ba = D.Relation.batch ra in
  let nb = D.Batch.nrows bb in
  T.add c_batches 2;
  T.add c_rows (D.Batch.nrows ba + nb);
  if T.enabled () then n.detail <- ("vec", 1) :: n.detail;
  if nb = 0 then
    (* the classic caveat: an empty divisor keeps every candidate *)
    D.Relation.of_batch n.schema (D.Batch.columns ba ia_keep)
  else begin
    let ia_div =
      Array.of_list
        (List.map
           (fun nm -> D.Schema.index nm a.schema)
           (D.Schema.names b.schema))
    in
    let s = D.Batch.sort_dedup (D.Batch.columns ba (Array.append ia_keep ia_div)) in
    let na = D.Batch.nrows s in
    let scols = D.Batch.cols s in
    let keep_cmps = Array.init nk (fun c -> D.Column.row_compare scols.(c)) in
    let same_group i j =
      let rec go c = c = nk || (keep_cmps.(c) i j = 0 && go (c + 1)) in
      go 0
    in
    let ncd = D.Batch.ncols bb in
    let div_cmps =
      Array.init ncd (fun c -> D.Column.cmp2 scols.(nk + c) (D.Batch.cols bb).(c))
    in
    let cmp_div i j =
      let rec go c =
        if c = ncd then 0
        else
          let r = div_cmps.(c) i j in
          if r <> 0 then r else go (c + 1)
      in
      go 0
    in
    let winners = ref [] and nwin = ref 0 in
    let i = ref 0 in
    while !i < na do
      let g0 = !i in
      let e = ref (g0 + 1) in
      while !e < na && same_group g0 !e do incr e done;
      let ii = ref g0 and jb = ref 0 in
      while !ii < !e && !jb < nb do
        let c = cmp_div !ii !jb in
        if c < 0 then incr ii
        else if c = 0 then begin
          incr ii;
          incr jb
        end
        else jb := nb + 1 (* this divisor row is absent: fail the group *)
      done;
      if !jb = nb then begin
        winners := g0 :: !winners;
        incr nwin
      end;
      i := !e
    done;
    let sel = Array.make !nwin 0 in
    List.iteri (fun k v -> sel.(k) <- v) !winners;
    (* winners were prepended, so they sit in [sel] descending: reverse *)
    let half = !nwin / 2 in
    for k = 0 to half - 1 do
      let t = sel.(k) in
      sel.(k) <- sel.(!nwin - 1 - k);
      sel.(!nwin - 1 - k) <- t
    done;
    let keep_batch = D.Batch.columns s (Array.init nk Fun.id) in
    D.Relation.of_batch ~canonical:true n.schema (D.Batch.gather keep_batch sel)
  end

(* A row-mode operator running over an input that was born columnar
   (materialized batch or pending deferred selection): counted so the
   telemetry shows where vectorization does not apply.  Both the aggregate
   counter and a per-operator labelled counter are bumped, so [qviz stats]
   shows *which* operator fell back (a nested-loop join, a hash join with
   no unboxed key view, …), not just that something did.  Interning the
   labelled slot takes the registry mutex, but this runs once per operator
   execution, never per row. *)
let note_row_fallback n inputs =
  if List.exists D.Relation.is_columnar inputs then begin
    T.incr c_fallback;
    T.incr (T.counter ("columnar.fallback_row_mode." ^ op_kind n))
  end

(* Rows held live by node memos during the current [run], and the high-
   water mark — the "peak rows resident" figure [analyze] reports.
   Tracked only under telemetry (cardinality of a set-backed view is a
   traversal), atomically because nodes memoize from worker domains. *)
let rows_resident = Atomic.make 0
let rows_resident_peak = Atomic.make 0
let g_peak_rows = T.gauge "exec.peak_rows_resident"

let note_resident rows =
  let cur = rows + Atomic.fetch_and_add rows_resident rows in
  let rec bump () =
    let p = Atomic.get rows_resident_peak in
    if cur > p && not (Atomic.compare_and_set rows_resident_peak p cur) then
      bump ()
  in
  bump ()

let rec exec (n : t) : D.Relation.t =
  match n.cache with
  | Some r ->
    n.hits <- n.hits + 1;
    r
  | None ->
    let r =
      if not (T.enabled ()) then compute n
      else begin
        (* one span per node computation; the duration is inclusive of the
           children computed beneath it, mirroring the tree shape the
           trace viewer shows *)
        let sp = T.start ~cat:"operator" (op_kind n) in
        let alloc0 =
          if T.alloc_enabled () then Gc.allocated_bytes () else 0.
        in
        let t0 = T.now_ns () in
        let r = compute n in
        n.actual_ns <- Int64.sub (T.now_ns ()) t0;
        if T.alloc_enabled () then
          (* allocation on the executing domain, children included; work
             a parallel operator shipped to pool domains is attributed to
             those domains' spans, not this node *)
          n.actual_alloc <- Gc.allocated_bytes () -. alloc0;
        let rows_in =
          List.fold_left
            (fun acc c ->
              match c.cache with
              | Some cr -> acc + D.Relation.cardinality cr
              | None -> acc)
            0 (children n)
        in
        let rows_out = D.Relation.cardinality r in
        note_resident rows_out;
        T.finish
          ~attrs:
            (("node", T.Int n.id)
            :: ("rows_in", T.Int rows_in)
            :: ("rows_out", T.Int rows_out)
            :: List.map (fun (k, v) -> (k, T.Int v)) n.detail)
          sp;
        r
      end
    in
    n.evals <- n.evals + 1;
    n.cache <- Some r;
    r

and compute n : D.Relation.t =
  match n.op with
  | Scan (_, r) -> r
  | Empty -> D.Relation.empty n.schema
  | Filter (p, c) ->
    let r = exec c in
    if n.vec then vec_filter n p r
    else if not (parallel_for (D.Relation.cardinality r)) then
      D.Relation.filter p.holds r
    else begin
      note_morsels n (D.Relation.cardinality r) !morsel_size;
      let arr = D.Relation.tuples_array r in
      merge_chunks (D.Relation.schema r)
        (Pool.parallel_map_chunks ~chunk:!morsel_size (chunk_filter p.holds)
           arr)
    end
  | Project (idx, c) when n.vec ->
    vec_project n idx (exec c)
  | Project (idx, c) ->
    let r = exec c in
    let proj t = Array.map (D.Tuple.get t) idx in
    if not (parallel_for (D.Relation.cardinality r)) then
      D.Relation.map n.schema proj r
    else begin
      note_morsels n (D.Relation.cardinality r) !morsel_size;
      merge_chunks n.schema
        (Pool.parallel_map_chunks ~chunk:!morsel_size
           (fun sub -> Array.fold_right (fun t acc -> proj t :: acc) sub [])
           (D.Relation.tuples_array r))
    end
  | Relabel c ->
    D.Relation.rename_all (D.Schema.names n.schema) (exec c)
  | Hash_join j -> (
    let lr = exec j.left and rr = exec j.right in
    match
      if n.vec then begin
        match vec_hash_join n j lr rr with
        | Some r -> Some r
        | None ->
          (* key columns with no unboxed code view: row path *)
          note_row_fallback n [ lr; rr ];
          None
      end
      else None
    with
    | Some r -> r
    | None ->
    let probe_all lookup =
      D.Relation.fold
        (fun ta acc ->
          let key = Array.map (D.Tuple.get ta) j.lkey in
          List.fold_left
            (fun acc tb ->
              let out =
                D.Tuple.concat ta (Array.map (D.Tuple.get tb) j.right_rest)
              in
              match j.residual with
              | Some p when not (p.holds out) -> acc
              | _ -> out :: acc)
            acc (lookup key))
        lr []
    in
    if not (parallel_for (D.Relation.cardinality lr)) then begin
      (* sequential probe over the per-relation cached index; under
         tracing the index build is forced first so build and probe time
         are attributable separately *)
      let build_ns, () =
        timed_if (fun () -> D.Relation.prepare_index rr j.rkey)
      in
      let probe_ns, r =
        timed_if (fun () ->
            D.Relation.of_tuples n.schema
              (probe_all (fun key -> D.Relation.matching rr j.rkey key)))
      in
      if T.enabled () then
        n.detail <- [ ("build_ns", build_ns); ("probe_ns", probe_ns) ];
      r
    end
    else begin
      let rkey_arr = Array.of_list j.rkey in
      let build_ns, lookup =
        timed_if @@ fun () ->
        if parallel_for (D.Relation.cardinality rr) then begin
          (* parallel partitioned build: every partition scans the build
             side and keeps the tuples whose key hash routes to it, so the
             partitions build concurrently with no shared table and no
             merge step *)
          let nparts = partition_count () in
          let mask = nparts - 1 in
          let rarr = D.Relation.tuples_array rr in
          let parts =
            Pool.run_all
              (Array.init nparts (fun pid () ->
                   D.Index.build rkey_arr (fun f ->
                       Array.iter
                         (fun t ->
                           if
                             D.Index.hash_key (D.Index.key rkey_arr t)
                             land mask
                             = pid
                           then f t)
                         rarr)))
          in
          fun key ->
            D.Index.lookup parts.(D.Index.hash_key key land mask) key
        end
        else begin
          (* small build side: build the relation's cached index once, up
             front, so the probe workers race only on read-only state *)
          D.Relation.prepare_index rr j.rkey;
          fun key -> D.Relation.matching rr j.rkey key
        end
      in
      (* parallel probe: each morsel of the left input probes independently *)
      let probe_chunk sub =
        Array.fold_right
          (fun ta acc ->
            let key = Array.map (D.Tuple.get ta) j.lkey in
            List.fold_left
              (fun acc tb ->
                let out =
                  D.Tuple.concat ta (Array.map (D.Tuple.get tb) j.right_rest)
                in
                match j.residual with
                | Some p when not (p.holds out) -> acc
                | _ -> out :: acc)
              acc (lookup key))
          sub []
      in
      let probe_ns, r =
        timed_if (fun () ->
            merge_chunks n.schema
              (Pool.parallel_map_chunks ~chunk:!morsel_size probe_chunk
                 (D.Relation.tuples_array lr)))
      in
      if T.enabled () then
        n.detail <-
          [ ("build_ns", build_ns); ("probe_ns", probe_ns);
            ( "morsels",
              (D.Relation.cardinality lr + !morsel_size - 1) / !morsel_size )
          ];
      r
    end)
  | Nl_join (p, a, b) ->
    let ra = exec a and rb = exec b in
    note_row_fallback n [ ra; rb ];
    let ca = D.Relation.cardinality ra and cb = D.Relation.cardinality rb in
    let pair_chunk sub =
      Array.fold_right
        (fun ta acc ->
          D.Relation.fold
            (fun tb acc ->
              let out = D.Tuple.concat ta tb in
              match p with
              | Some p when not (p.holds out) -> acc
              | _ -> out :: acc)
            rb acc)
        sub []
    in
    if not (parallel_for (ca * cb)) then
      D.Relation.of_tuples n.schema (pair_chunk (D.Relation.tuples_array ra))
    else begin
      (* the work is |a|·|b|: chunk the outer side finely enough that even
         a small outer relation spreads across the pool *)
      note_morsels n ca (chunk_for ca);
      merge_chunks n.schema
        (Pool.parallel_map_chunks ~chunk:(chunk_for ca) pair_chunk
           (D.Relation.tuples_array ra))
    end
  | Union (a, b) when n.vec ->
    vec_setop n D.Batch.merge_union (exec a) (exec b)
  | Inter (a, b) when n.vec ->
    vec_setop n D.Batch.merge_inter (exec a) (exec b)
  | Diff (a, b) when n.vec ->
    vec_setop n D.Batch.merge_diff (exec a) (exec b)
  | Union (a, b) ->
    let ra = exec a and rb = exec b in
    note_row_fallback n [ ra; rb ];
    if not (parallel_for (D.Relation.cardinality rb)) then
      D.Relation.union ra rb
    else begin
      (* keep a intact; in parallel, find b's genuinely new tuples *)
      note_morsels n (D.Relation.cardinality rb) !morsel_size;
      let fresh =
        Pool.parallel_map_chunks ~chunk:!morsel_size
          (chunk_filter (fun t -> not (D.Relation.mem t ra)))
          (D.Relation.tuples_array rb)
      in
      D.Relation.of_tuples n.schema
        (List.concat (D.Relation.tuples ra :: Array.to_list fresh))
    end
  | Inter (a, b) ->
    let ra = exec a and rb = exec b in
    note_row_fallback n [ ra; rb ];
    if not (parallel_for (D.Relation.cardinality ra)) then
      D.Relation.inter ra rb
    else begin
      note_morsels n (D.Relation.cardinality ra) !morsel_size;
      merge_chunks n.schema
        (Pool.parallel_map_chunks ~chunk:!morsel_size
           (chunk_filter (fun t -> D.Relation.mem t rb))
           (D.Relation.tuples_array ra))
    end
  | Diff (a, b) ->
    let ra = exec a and rb = exec b in
    note_row_fallback n [ ra; rb ];
    if not (parallel_for (D.Relation.cardinality ra)) then
      D.Relation.diff ra rb
    else begin
      note_morsels n (D.Relation.cardinality ra) !morsel_size;
      merge_chunks n.schema
        (Pool.parallel_map_chunks ~chunk:!morsel_size
           (chunk_filter (fun t -> not (D.Relation.mem t rb)))
           (D.Relation.tuples_array ra))
    end
  | Division (a, b) when n.vec ->
    vec_division n a b (exec a) (exec b)
  | Division (a, b) ->
    let ra = exec a and rb = exec b in
    note_row_fallback n [ ra; rb ];
    D.Relation.division ra rb

(* ---------------- traversal ---------------- *)

(** Fold over every distinct node of the DAG (shared nodes visited once). *)
let fold_unique f (root : t) init =
  let seen = Hashtbl.create 16 in
  let rec go acc n =
    if Hashtbl.mem seen n.id then acc
    else begin
      Hashtbl.add seen n.id ();
      List.fold_left go (f n acc) (children n)
    end
  in
  go init root

(** Mark the nodes that execute vectorized: filters and projections whose estimated input clears {!vec_threshold}
    rows, hash joins where either side does, set operations (union /
    intersect / minus) likewise — canonical batches are sorted and
    duplicate-free, so those run as single linear merges with no hashing
    or boxing — and division (sorted-group merge, {!vec_division}).
    Nested-loop joins stay in row mode — their sorted-set implementation
    already runs without per-row closure dispatch, and vectorizing them
    does not pay.  Called by {!Planner.plan} once cardinality estimates
    exist; every other node runs the row kernels.  The mark is the whole
    decision — execution follows it, so a cached plan always runs the
    path it was planned for. *)
let mark_vectorized root =
  let thr = float_of_int !vec_threshold in
  fold_unique
    (fun n () ->
      n.vec <-
        (match n.op with
        | Filter (_, c) | Project (_, c) -> c.est >= thr
        | Hash_join j -> Float.max j.left.est j.right.est >= thr
        | Union (a, b) | Inter (a, b) | Diff (a, b) | Division (a, b) ->
          Float.max a.est b.est >= thr
        | _ -> false))
    root ()

(** Mark the filters and projections that emit a {e deferred selection
    view} (no gather — late materialization): exactly the vectorized σ/π
    whose every consumer reads views natively (a downstream vectorized
    filter, projection, or hash join), plus the plan root — the final gather is deferred to whoever consumes the
    result, and a cardinality probe or row-mode decode of a canonical
    view never pays for the column gather at all.  Everything else —
    set operations, division, nested-loop joins, row-mode operators — is
    a pipeline breaker: those force materialization simply by asking the
    relation for its batch, so fusion marking is a pure optimization and
    an unmarked node behaves exactly as before.  A DAG-shared node with
    even one non-view consumer stays unmarked (it would materialize
    anyway, and eagerly is cheaper than under the relation lock).  Called
    by {!Planner.plan} after {!mark_vectorized}. *)
let mark_fusable root =
  let parents : (int, t list) Hashtbl.t = Hashtbl.create 16 in
  fold_unique
    (fun n () ->
      List.iter
        (fun c ->
          let ps = Option.value ~default:[] (Hashtbl.find_opt parents c.id) in
          Hashtbl.replace parents c.id (n :: ps))
        (children n))
    root ();
  let view_consumer p =
    p.vec
    &&
    match p.op with Filter _ | Project _ | Hash_join _ -> true | _ -> false
  in
  fold_unique
    (fun n () ->
      n.fuse <-
        n.vec
        && (match n.op with Filter _ | Project _ -> true | _ -> false)
        &&
        match Hashtbl.find_opt parents n.id with
        | None | Some [] -> true (* plan root: defer the final gather *)
        | Some ps -> List.for_all view_consumer ps)
    root ()

(** Reset every node's result memo and counters.  {!run} calls this before
    executing, making the per-node caches {e single-evaluation-scoped}: a
    plan served again from the plan cache re-executes against the current
    relations instead of leaking the previous call's results.  (After a
    {!run} the memos are still filled, which is what lets [explain] report
    actual row counts.) *)
let reset_caches root =
  fold_unique
    (fun n () ->
      n.cache <- None;
      n.evals <- 0;
      n.hits <- 0;
      n.actual_ns <- -1L;
      n.actual_alloc <- -1.;
      n.detail <- [])
    root ()

(** Execute a {e freshly built} node without resetting memos first — the
    entry point the differential evaluator ({!Delta}) uses for the
    ephemeral per-update delta plans it assembles around existing
    relations.  The per-evaluation node memo of a registered plan is
    {b not} shared with delta evaluation: a plan can be served from the
    plan cache and re-{!run} for an ad-hoc query at any time, which
    resets every node's [cache] — so differential state must live with
    the view (see {!Delta}), never on plan nodes, and the delta plans
    executed here are built fresh per maintenance round from nodes no
    {!run} can reach. *)
let exec_fresh (n : t) : D.Relation.t = exec n

(** Execute a (possibly cached, possibly previously executed) plan from a
    clean slate — the entry point {!Eval.eval_planned} uses. *)
let run root =
  reset_caches root;
  if T.enabled () then begin
    Atomic.set rows_resident 0;
    Atomic.set rows_resident_peak 0
  end;
  let r =
    T.with_span ~cat:"phase"
      ~attrs:(fun () ->
        match root.cache with
        | Some r -> [ ("rows", T.Int (D.Relation.cardinality r)) ]
        | None -> [])
      "execute"
      (fun () -> exec root)
  in
  if T.enabled () then
    T.set_gauge g_peak_rows (Atomic.get rows_resident_peak);
  r

(* ---------------- explain ---------------- *)

let label n =
  match n.op with
  | Scan (name, _) -> "scan " ^ name
  | Empty -> "empty"
  | Filter (p, _) -> Printf.sprintf "filter [%s]" p.display
  | Project (_, c) ->
    let names = D.Schema.names n.schema in
    if names = D.Schema.names c.schema then "reorder"
    else Printf.sprintf "project [%s]" (String.concat ", " names)
  | Relabel _ ->
    Printf.sprintf "rename [%s]" (String.concat ", " (D.Schema.names n.schema))
  | Hash_join j ->
    let ln = D.Schema.names j.left.schema
    and rn = D.Schema.names j.right.schema in
    let eqs =
      List.map2
        (fun l r -> Printf.sprintf "%s = %s" (List.nth ln l) (List.nth rn r))
        (Array.to_list j.lkey) j.rkey
    in
    Printf.sprintf "hash-join [%s]%s"
      (String.concat ", " eqs)
      (match j.residual with
      | Some p -> Printf.sprintf " filter [%s]" p.display
      | None -> "")
  | Nl_join (None, _, _) -> "product"
  | Nl_join (Some p, _, _) -> Printf.sprintf "nl-join [%s]" p.display
  | Union _ -> "union"
  | Inter _ -> "intersect"
  | Diff _ -> "minus"
  | Division _ -> "divide"

(* Shared tree renderer: one operator per line, shared nodes printed once
   and referenced by [#id] afterwards; [annot n] is the per-node
   parenthetical. *)
let render ~annot (root : t) : string =
  (* nodes referenced from more than one parent get a #id tag *)
  let refs = Hashtbl.create 16 in
  let rec count n =
    let c = try Hashtbl.find refs n.id with Not_found -> 0 in
    Hashtbl.replace refs n.id (c + 1);
    if c = 0 then List.iter count (children n)
  in
  count root;
  let buf = Buffer.create 256 in
  let printed = Hashtbl.create 16 in
  let rec go indent n =
    let shared = Hashtbl.find refs n.id > 1 in
    let tag = if shared then Printf.sprintf "#%d " n.id else "" in
    if Hashtbl.mem printed n.id then
      Buffer.add_string buf
        (Printf.sprintf "%s#%d %s (shared, computed once)\n" indent n.id
           (label n))
    else begin
      Hashtbl.add printed n.id ();
      Buffer.add_string buf
        (Printf.sprintf "%s%s%s  (%s)\n" indent tag (label n) (annot n));
      List.iter (go (indent ^ "  ")) (children n)
    end
  in
  go "" root;
  Buffer.contents buf

let actual_rows n =
  match n.cache with
  | Some r -> string_of_int (D.Relation.cardinality r)
  | None -> "?"

(** Render the plan with estimated and (when the node has been executed)
    actual row counts. *)
let explain (root : t) : string =
  render root ~annot:(fun n ->
      Printf.sprintf "est=%.0f actual=%s" n.est (actual_rows n))

(* A node whose cardinality estimate missed by more than this factor gets
   flagged in the analyze output. *)
let est_off_factor = 10.

(* est-vs-actual error ratio, symmetric, with both sides clamped to >= 1
   so empty results don't divide by zero. *)
let est_ratio est actual =
  let e = Float.max 1. est and a = Float.max 1. (float_of_int actual) in
  Float.max (e /. a) (a /. e)

(** Would this estimate/actual pair be flagged in the analyze output? *)
let est_off ~est ~actual = est_ratio est actual > est_off_factor

(** Render the plan annotated with the measured execution profile — the
    [qviz eval --analyze] sink.  Each executed node shows actual rows and
    wall time (children included) next to the planner's estimate, hash
    joins additionally split build vs. probe time and parallel operators
    report their morsel count; nodes whose row estimate was off by more
    than {!est_off_factor}× are flagged with [!est-off].  Requires the
    plan to have been run with telemetry enabled; untimed nodes render
    [time=?]. *)
let analyze (root : t) : string =
  render root ~annot:(fun n ->
      let time =
        if n.actual_ns < 0L then "time=?"
        else Printf.sprintf "time=%.3fms" (T.ns_to_ms n.actual_ns)
      in
      let alloc =
        (* only present when the plan ran with alloc tracking on *)
        if n.actual_alloc < 0. then ""
        else Printf.sprintf " alloc=%s" (T.bytes_to_string n.actual_alloc)
      in
      let detail =
        String.concat ""
          (List.map
             (fun (k, v) ->
               match k with
               | "build_ns" -> Printf.sprintf " build=%.3fms" (float_of_int v /. 1e6)
               | "probe_ns" -> Printf.sprintf " probe=%.3fms" (float_of_int v /. 1e6)
               | _ -> Printf.sprintf " %s=%d" k v)
             (List.rev n.detail))
      in
      let flag =
        match n.cache with
        | Some r
          when est_ratio n.est (D.Relation.cardinality r) > est_off_factor ->
          Printf.sprintf "  !est-off(%.0fx)"
            (est_ratio n.est (D.Relation.cardinality r))
        | _ -> ""
      in
      Printf.sprintf "est=%.0f actual=%s %s%s%s%s" n.est (actual_rows n) time
        alloc detail flag)

(** Total number of node computations across the DAG — with hash-consing
    this stays at the number of {e distinct} subexpressions. *)
let total_evals root = fold_unique (fun n acc -> acc + n.evals) root 0

(** Total memo hits — how many re-evaluations sharing saved. *)
let total_hits root = fold_unique (fun n acc -> acc + n.hits) root 0

(** Estimated bytes held live by the plan's node memos — the intermediate
    results still resident after a run ({!Plan_cache} sums this over every
    cached plan for the [memory_bytes.plan_cache] gauge).  Scan nodes are
    skipped: their "result" is the base relation itself, owned by the
    database, not the plan. *)
let memory_bytes (root : t) : int =
  fold_unique
    (fun n acc ->
      match (n.op, n.cache) with
      | Scan _, _ | _, None -> acc
      | _, Some r -> acc + D.Relation.memory_bytes r)
    root 0
