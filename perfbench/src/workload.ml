(** The three workloads: their inputs (databases, query pools, update
    streams), all derived from the run's seed, and their fixed settings.

    The driver and every worker process call these functions with the same
    seed, so they agree on the inputs without shipping them over a pipe. *)

module D = Diagres_data
module L = Diagres.Languages

type name = Ask_mix | Analytics | Views

let names = [ ("ask-mix", Ask_mix); ("analytics", Analytics); ("views", Views) ]
let of_string s = List.assoc_opt s names
let to_string w = fst (List.find (fun (_, w') -> w' = w) names)

(** One query of a pool: [label] names its source (["q3-TRC"] for a
    catalog cell, ["gen17-DRC"] for a generated query).  [oracle_text], when
    set, is an equivalent RA formulation the oracle evaluates instead. *)
type query = {
  label : string;
  lang : L.lang;
  text : string;
  oracle_text : string option;
}

(** The wall-clock deadline of every request, far above the latency of
    every request that completes: about 1 s at most on ask-mix, under
    0.5 s on analytics and views (see perfbench/NOTES.md). *)
let deadline_s = 10.0

type spec = {
  domains : int;  (** worker pool size *)
  budget_mb : float option;
      (** per request, allocation: a request that allocates more is
          stopped like one that passes its deadline (see [Worker]) *)
  min_requests : int;  (** scheduled requests per measured phase, at least *)
  traced_passes : int;  (** fixed length of a traced phase, in passes *)
}

(** Workers started per run before the measured phase's own, so that
    [setup_s] is a median of at least this many set-ups. *)
let setups = 3

(** ask-mix's work budget.  A wall-clock deadline near the slow queries'
    latencies flipped some of them between runs on a shared host whose
    speed drifts; the bytes a request allocates do not drift (they move by
    up to 5 % with the queries served before it).  The pool's queries
    allocate at most 406 MB, or at least 472 MB, and the budget sits in
    that gap.  It stops the queries a 1 s deadline stopped on a 2-vCPU
    shared host, and also gen12-TRC (472-496 MB in 0.6 s).  gen42-DRC,
    which allocates 482 MB over 9-12 s, reaches the 10 s deadline first.
    See perfbench/NOTES.md. *)
let ask_budget_mb = 430.

let spec = function
  | Ask_mix ->
    { domains = 1; budget_mb = Some ask_budget_mb; min_requests = 1000;
      traced_passes = 2 }
  | Analytics ->
    { domains = 2; budget_mb = None; min_requests = 100; traced_passes = 10 }
  | Views ->
    { domains = 1; budget_mb = None; min_requests = 100; traced_passes = 20 }

(* ---------------- ask-mix: catalog cells + generated queries ---------- *)

(** Generated queries per language; with the 25 catalog cells the pool
    holds 340 distinct queries, more than the plan cache's 256 entries, and
    three passes schedule 1020 requests. *)
let generated_per_lang = 63

(** The Qgen seed of the generated queries.  The pool is the same in every
    run, so runs with different seeds measure one population; the run seed
    shuffles the order of each pass, which decides what the plan cache
    holds when a query arrives.  A pool drawn per run seed moved the
    end-to-end figures by 15-20% between seeds (its failures and slow
    queries are a few dozen draws from a heavy tail). *)
let pool_seed = 1

let catalog_cells () =
  List.concat_map
    (fun (e : Diagres.Catalog.entry) ->
      List.map
        (fun lang ->
          let text =
            match lang with
            | L.Sql -> e.sql
            | L.Ra -> e.ra
            | L.Trc -> e.trc
            | L.Drc -> e.drc
            | L.Datalog -> e.datalog
          in
          { label = e.id ^ "-" ^ L.name lang; lang; text; oracle_text = None })
        L.all)
    Diagres.Catalog.all

(* One query of [lang] at Qgen's default shapes (RA at the fuel the
   roundtrip and columnar fuzz suites use). *)
let gen_one st lang : L.query =
  let schemas = D.Sample_db.schemas in
  let module Q = Diagres.Qgen in
  match lang with
  | L.Sql -> L.Q_sql (Q.gen_sql st schemas)
  | L.Ra -> L.Q_ra (Q.gen_ra st schemas 3)
  | L.Trc -> L.Q_trc (Q.gen_trc st schemas)
  | L.Drc -> L.Q_drc (Q.gen_drc st schemas)
  | L.Datalog -> L.Q_datalog (Q.gen_datalog st schemas, "q")

(** The ask-mix pool: every catalog cell, then [generated_per_lang]
    distinct generated queries per language, as source text. *)
let ask_pool () : query array =
  let cells = catalog_cells () in
  let seen = Hashtbl.create 512 in
  List.iter (fun q -> Hashtbl.replace seen q.text ()) cells;
  let st = Random.State.make [| 0xa5c; pool_seed |] in
  let rec fresh lang =
    let text = L.to_string (gen_one st lang) in
    if Hashtbl.mem seen text then fresh lang
    else (
      Hashtbl.replace seen text ();
      text)
  in
  let generated =
    List.concat
      (List.init generated_per_lang (fun i ->
           List.map
             (fun lang ->
               { label = Printf.sprintf "gen%d-%s" (i + 1) (L.name lang);
                 lang; text = fresh lang; oracle_text = None })
             L.all))
  in
  Array.of_list (cells @ generated)

(* ---------------- analytics and views ---------------- *)

let analytics_sailors = 300_000
let views_sailors = 30_000

let ra ?oracle label text = { label; lang = L.Ra; text; oracle_text = oracle }

(** The catalog RA forms of q1, q2 and q4. *)
let catalog_ra ids =
  List.map (fun id -> ra id (Diagres.Catalog.find id).Diagres.Catalog.ra) ids

let filter_join n =
  ra "filter-join"
    (Printf.sprintf
       "project[sname](select[rating > 7](Sailor) join select[sid <= \
        %d](Reserves))"
       (n / 2))

(** Eleven distinct RA queries: the E13 kernels, the E15 pipelines,
    division, the E11 theta-join written as a selection over a product, and
    three catalog queries. *)
let analytics_queries () : query array =
  Array.of_list
    ([ ra "filter" "select[rating > 7](Sailor)";
       ra "join" "project[sname](Sailor join Reserves)";
       ra "union" "select[rating > 7](Sailor) union select[rating <= 3](Sailor)";
       ra "diff" "project[sid](Sailor) minus project[sid](Reserves)";
       ra "filter-project" "project[sid, rating](select[rating > 5](Sailor))";
       filter_join analytics_sailors;
       ra "division"
         "project[sid, bid](Reserves) div project[bid](select[color = \
          'red'](Boat))";
       (* the naive evaluator's theta-join is a nested loop, 1.8e10 pairs
          here even after the optimizer's rewrites; its oracle is the
          natural-join formulation *)
       ra "theta-join"
         "project[sid2](select[sid = sid2 and rating = 10](Sailor * \
          rename[sid -> sid2, bid -> bid2, day -> day2](Reserves)))"
         ~oracle:
           "rename[sid -> sid2](project[sid](select[rating = 10](Sailor) join \
            Reserves))" ]
    @ catalog_ra [ "q1"; "q2"; "q4" ])

(** The registered views: the RA forms of q1, q2 and q4, the E14 view, and
    the E15 filter-join. *)
let view_queries () : query array =
  Array.of_list
    (catalog_ra [ "q1"; "q2"; "q4" ]
    @ [ ra "sname-join" "project[sname](Sailor join Reserves)";
        filter_join views_sailors ])

let database w ~seed =
  match w with
  | Ask_mix -> D.Sample_db.db
  | Analytics -> D.Generator.sailors_db_columnar ~n_sailors:analytics_sailors seed
  | Views -> D.Generator.sailors_db_columnar ~n_sailors:views_sailors seed

(** The query pool a request index points into. *)
let pool w =
  match w with
  | Ask_mix -> ask_pool ()
  | Analytics -> analytics_queries ()
  | Views -> view_queries ()

(** The views workload's update stream: round [r]'s batch is the [r]-th
    draw from this generator, so a worker and the oracle replaying the
    stream see the same batches. *)
let update_rng ~seed = D.Generator.rng ((seed * 7919) + 13)

let update_frac = 0.01

(** The order of pass [pass] over a pool of [n] queries: a Fisher-Yates
    shuffle seeded by the run seed and the pass number. *)
let pass_order ~seed ~pass n =
  let st = Random.State.make [| 0x0bd; seed; pass |] in
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a
