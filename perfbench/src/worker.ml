(** The worker process: builds the workload's database, then serves one
    request at a time from the driver over a pipe.

    Commands, one per line on stdin:
    - [q I]     run pool query [I] along the request route (ask-mix renders)
    - [w R]     views round [R]: one update batch, then a read of one view
    - [o I]     the oracle's answer for pool query [I]
    - [vo R]    the oracle's answer for the read of views round [R]
    - [sleep S] sleep [S] seconds (the self-tests' synthetic slow request)
    - [alloc M] allocate [M] MB (the self-tests' synthetic costly request)
    - [quit]    report peak RSS and exit

    Each reply is one line: a status word ([ok], [refused], [wrong],
    [crash], [timeout]) followed by space-separated [key=value] fields.
    After a [timeout] reply the worker exits.  A traced
    worker adds one [span=name,start_ns,dur_ns] field per layer call and
    one [c.COUNTER=delta] field per program counter.  The program's own
    span flag stays off: every span here is the benchmark's. *)

module D = Diagres_data
module R = D.Relation
module L = Diagres.Languages
module Ra = Diagres_ra
module T = Diagres_telemetry.Telemetry
module W = Workload

let now () = T.now_ns ()

(** The program counters read as deltas around each traced request. *)
let counters =
  [ "plan_cache.hit"; "plan_cache.miss"; "plan_cache.evictions";
    "columnar.rows"; "columnar.fallback_row_mode";
    "columnar.fallback_row_mode.op.hash-join";
    "columnar.fallback_row_mode.op.divide"; "columnar.gathers_deferred";
    "columnar.gathers_forced"; "index.cache.hit"; "index.cache.miss";
    "stats.cache.hit"; "stats.cache.miss"; "pool.tasks.executed";
    "pool.tasks.helped"; "pool.helper.busy_ns"; "view.delta_rows" ]

let read_counters () = List.map T.counter_named counters

(** Peak resident set size of this process, in KiB ([VmHWM]). *)
let peak_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
        else scan ()
    in
    let kb = scan () in
    close_in ic;
    kb

let rec ra_nodes (e : Ra.Ast.t) =
  match e with
  | Ra.Ast.Rel _ -> 1
  | Ra.Ast.Empty c
  | Ra.Ast.Select (_, c)
  | Ra.Ast.Project (_, c)
  | Ra.Ast.Rename (_, c) ->
    1 + ra_nodes c
  | Ra.Ast.Product (a, b)
  | Ra.Ast.Join (a, b)
  | Ra.Ast.Theta_join (_, a, b)
  | Ra.Ast.Union (a, b)
  | Ra.Ast.Inter (a, b)
  | Ra.Ast.Diff (a, b)
  | Ra.Ast.Division (a, b) ->
    1 + ra_nodes a + ra_nodes b

type state = {
  workload : W.name;
  traced : bool;
  pool : W.query array;
  mutable db : D.Database.t;
      (** the queried database; the views oracle advances it per round *)
  schemas : (string * D.Schema.t) list;
  env : Ra.Typecheck.env;
  registry : Diagres.Views.t option;  (** the views workload's registry *)
  rng : D.Generator.rng;  (** the views update stream *)
  mutable round : int;  (** next views round expected *)
  budget : float option;  (** bytes a request may allocate *)
  mutable spans : (string * int64 * int64) list;  (** current request *)
  mutable fields : (string * string) list;  (** current request *)
  mutable start : float * int64;
      (** current request: [Gc.allocated_bytes] and time at its start *)
  mutable armed : bool;  (** the budget is being checked *)
}

let field st k v = st.fields <- (k, v) :: st.fields

(* [layer st name f]: run one layer call, with a bench-owned span around it
   when tracing. *)
let layer st name f =
  if not st.traced then f ()
  else begin
    let t0 = now () in
    let r = f () in
    st.spans <- (name, t0, Int64.sub (now ()) t0) :: st.spans;
    r
  end

(* A deferred selection is the program's output too: force its gather
   inside the timed region, as a consumer of the answer would. *)
let force (r : R.t) = if R.is_columnar r then ignore (R.batch r : D.Batch.t)

let exec st plan =
  layer st "exec" (fun () ->
      if st.traced then begin
        let a0 = Gc.allocated_bytes () in
        let m0 = (Gc.quick_stat ()).Gc.major_collections in
        let r = Ra.Plan.run plan in
        force r;
        field st "alloc" (Printf.sprintf "%.0f" (Gc.allocated_bytes () -. a0));
        field st "majors"
          (string_of_int ((Gc.quick_stat ()).Gc.major_collections - m0));
        field st "rows" (string_of_int (R.cardinality r));
        r
      end
      else begin
        let r = Ra.Plan.run plan in
        force r;
        r
      end)

(* The request route: parse -> lower -> typecheck -> plan -> execute, and
   for ask-mix render. *)
let query_route st (q : W.query) =
  let parsed = layer st "parse" (fun () -> L.parse q.lang q.text) in
  let ra = layer st "lower" (fun () -> L.to_ra st.schemas parsed) in
  if st.traced then field st "nodes" (string_of_int (ra_nodes ra));
  ignore
    (layer st "typecheck" (fun () -> Ra.Typecheck.infer st.env ra)
      : D.Schema.t);
  let plan, _hit =
    layer st "plan" (fun () -> Ra.Plan_cache.find_or_plan st.db ra)
  in
  let rel = exec st plan in
  if st.workload = W.Ask_mix then begin
    let r =
      layer st "render" (fun () ->
          Diagres.Pipeline.visualize st.schemas parsed
            Diagres.Pipeline.Relational_diagram)
    in
    if st.traced then
      field st "panels" (string_of_int r.Diagres.Pipeline.panel_count)
  end;
  rel

let registry st =
  match st.registry with
  | Some t -> t
  | None -> invalid_arg "views command outside the views workload"

(* One views round: apply an update batch and maintain every view, then
   read the next view's query on the updated database.  The traced run
   makes the same calls [Views.update] and [Eval.eval_planned] make, one
   layer at a time. *)
let views_round st t (changes : (string * R.t * R.t) list) r =
  let views = Diagres.Views.views t in
  let t0 = now () in
  if st.traced then begin
    let db', applied =
      layer st "apply" (fun () ->
          D.Database.apply_delta changes (Diagres.Views.database t))
    in
    t.Diagres.Views.db <- db';
    layer st "maintain" (fun () ->
        List.iter
          (fun (_, (v : Diagres.Views.view)) ->
            ignore (Ra.Delta.maintain v.delta applied : Ra.Delta.report);
            v.generation <- v.generation + 1)
          views)
  end
  else ignore (Diagres.Views.update t changes : Diagres.Views.update_stats list);
  let t_write = now () in
  let _, (v : Diagres.Views.view) = List.nth views (r mod List.length views) in
  let db = Diagres.Views.database t in
  let rel =
    if st.traced then begin
      ignore
        (layer st "typecheck" (fun () ->
             Ra.Typecheck.infer (Ra.Typecheck.env_of_database db) v.ra)
          : D.Schema.t);
      let plan, _ =
        layer st "plan" (fun () -> Ra.Plan_cache.find_or_plan db v.ra)
      in
      exec st plan
    end
    else begin
      let r = Ra.Eval.eval_planned db v.ra in
      force r;
      r
    end
  in
  field st "upd" (Int64.to_string (Int64.sub t_write t0));
  field st "rd" (Int64.to_string (Int64.sub (now ()) t_write));
  (rel, v)

let next_batch st db =
  D.Generator.update_batch ~frac:W.update_frac st.rng db

let check_round st r =
  if r <> st.round then
    invalid_arg
      (Printf.sprintf "views round %d out of order (want %d)" r st.round);
  st.round <- r + 1

let clean s = String.map (fun c -> if c = ' ' || c = '\n' then '_' else c) s

(* Classify a failed request: a structured diagnostic is a refusal, any
   other exception a crash. *)
let failure exn =
  match exn with
  | Diagres_diag.Diag.Error d -> ("refused", d.code)
  | exn -> (
    match Diagres.Errors.of_exn exn with
    | Some d -> ("refused", d.Diagres_diag.Diag.code)
    | None -> ("crash", clean (Printexc.to_string exn)))

let reply st status =
  let b = Buffer.create 256 in
  Buffer.add_string b status;
  List.iter (fun (k, v) -> Printf.bprintf b " %s=%s" k v) (List.rev st.fields);
  List.iter
    (fun (n, t0, d) -> Printf.bprintf b " span=%s,%Ld,%Ld" n t0 d)
    (List.rev st.spans);
  Buffer.add_char b '\n';
  print_string (Buffer.contents b);
  flush stdout;
  st.spans <- [];
  st.fields <- []

(* ---------------- the work budget ---------------- *)

(* A request that allocates more than the workload's budget is stopped:
   the worker replies [timeout] and exits, as a worker the driver kills at
   the deadline does.  The bytes a request allocates are the same on every
   run of the same inputs, so, unlike a wall-clock deadline, the budget
   stops the same requests on a slow host as on a fast one.  An interval
   timer checks the budget every [budget_tick_s] while a request runs.  A
   request that passes it between two checks and then returns, or raises,
   is stopped the same way. *)

let budget_tick_s = 0.01

let allocated st = Gc.allocated_bytes () -. fst st.start

let over_budget st =
  match st.budget with Some b -> allocated st > b | None -> false

let stop_over_budget st =
  field st "lat" (Int64.to_string (Int64.sub (now ()) (snd st.start)));
  field st "mem" (Printf.sprintf "%.0f" (allocated st));
  field st "what" "budget";
  reply st "timeout";
  Unix._exit 0

let set_timer s =
  ignore
    (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = s; it_value = s }
      : Unix.interval_timer_status)

(* Run [f] under the budget.  A timer signal still pending when [f]
   returns finds the budget disarmed. *)
let budgeted st f =
  match st.budget with
  | None -> f ()
  | Some _ ->
    st.armed <- true;
    set_timer budget_tick_s;
    Fun.protect f ~finally:(fun () ->
        set_timer 0.;
        st.armed <- false)

let install_budget st =
  if st.budget <> None then
    Sys.set_signal Sys.sigalrm
      (Sys.Signal_handle
         (fun _ -> if st.armed && over_budget st then stop_over_budget st))

(* [serve st run check]: time [run] in the worker as one request, then
   [check] its output ([Some why] = a wrong answer).  The check is timed
   apart ([chk]), so the driver can leave it out of the measured phase. *)
let serve st (run : unit -> 'a) (check : 'a -> string option) =
  let c0 = if st.traced then read_counters () else [] in
  st.start <- (Gc.allocated_bytes (), now ());
  let t0 = snd st.start in
  match budgeted st run with
  | _ when over_budget st -> stop_over_budget st
  | exception _ when over_budget st -> stop_over_budget st
  | out ->
    let t1 = now () in
    field st "lat" (Int64.to_string (Int64.sub t1 t0));
    field st "mem" (Printf.sprintf "%.0f" (allocated st));
    if st.traced then begin
      st.spans <- ("request", t0, Int64.sub t1 t0) :: st.spans;
      List.iter2
        (fun name (a, b) ->
          if b <> a then field st ("c." ^ name) (string_of_int (b - a)))
        counters
        (List.combine c0 (read_counters ()))
    end;
    let wrong = check out in
    field st "chk" (Int64.to_string (Int64.sub (now ()) t1));
    (match wrong with
    | Some why ->
      field st "why" (clean why);
      reply st "wrong"
    | None -> reply st "ok")
  | exception exn ->
    let status, what = failure exn in
    field st "lat" (Int64.to_string (Int64.sub (now ()) t0));
    field st "what" what;
    reply st status

let with_digest st rel =
  field st "dig" (Oracle.digest rel);
  None

(* The oracle's answer for round [r]'s read: advance the oracle's own copy
   of the database by the round's batch, then evaluate the view naively. *)
let oracle_round st r =
  check_round st r;
  let changes = next_batch st st.db in
  let db', _ = D.Database.apply_delta changes st.db in
  st.db <- db';
  Oracle.of_query st.db st.pool.(r mod Array.length st.pool)

let handle st line =
  match String.split_on_char ' ' (String.trim line) with
  | [ "q"; i ] -> serve st (fun () -> query_route st st.pool.(int_of_string i)) (with_digest st)
  | [ "w"; r ] ->
    let r = int_of_string r in
    check_round st r;
    let t = registry st in
    let changes = next_batch st (Diagres.Views.database t) in
    serve st
      (fun () -> views_round st t changes r)
      (fun (rel, (v : Diagres.Views.view)) ->
        if R.same_rows rel (Diagres.Views.result v) then with_digest st rel
        else Some ("read of " ^ v.name ^ " differs from Views.result"))
  | [ "o"; i ] ->
    let q = st.pool.(int_of_string i) in
    serve st (fun () -> Oracle.of_query st.db q) (with_digest st)
  | [ "vo"; r ] ->
    serve st (fun () -> oracle_round st (int_of_string r)) (with_digest st)
  | [ "sleep"; s ] -> serve st (fun () -> Unix.sleepf (float_of_string s)) (fun () -> None)
  | [ "alloc"; mb ] ->
    (* 1 KB blocks (127 fields and a header), each dropped at once *)
    let blocks = int_of_float (float_of_string mb *. 1024.) in
    serve st
      (fun () ->
        for _ = 1 to blocks do
          ignore (Sys.opaque_identity (Array.make 127 0))
        done)
      (fun () -> None)
  | _ -> invalid_arg ("unknown command: " ^ line)

(* ---------------- set-up ---------------- *)

let timed f =
  let t0 = now () in
  let r = f () in
  (T.ns_to_s (Int64.sub (now ()) t0), r)

(* The untimed warm-up pass: analytics runs every query once (columns
   converted, indexes built, plans cached); views reads every view once;
   ask-mix asks the five catalog RA cells, the pool's queries that are
   cheap in every layer (the rest of its pool can exceed the deadline). *)
let warm_up st =
  let quiet f = try ignore (f ()) with _ -> () in
  match st.workload with
  | W.Analytics -> Array.iter (fun q -> quiet (fun () -> query_route st q)) st.pool
  | W.Ask_mix ->
    List.iter
      (fun (q : W.query) -> if q.lang = L.Ra then quiet (fun () -> query_route st q))
      (W.catalog_cells ())
  | W.Views ->
    let t = registry st in
    List.iter
      (fun (_, (v : Diagres.Views.view)) ->
        quiet (fun () -> force (Ra.Eval.eval_planned (Diagres.Views.database t) v.ra)))
      (Diagres.Views.views t)

(** Build the worker's state and announce [ready] with the set-up split:
    database build, view registration, warm-up pass.  An oracle worker
    builds the database only. *)
let setup ~oracle ~workload ~seed ~traced =
  let spec = W.spec workload in
  Diagres_pool.Pool.set_size spec.W.domains;
  let db_s, db = timed (fun () -> W.database workload ~seed) in
  let pool = W.pool workload in
  let schemas =
    List.map (fun (n, r) -> (n, R.schema r)) (D.Database.relations db)
  in
  let register_s, registry =
    if workload <> W.Views || oracle then (0., None)
    else
      timed (fun () ->
          let t = Diagres.Views.create db in
          Array.iter
            (fun (q : W.query) ->
              ignore
                (Diagres.Views.register t ~name:q.label ~lang:q.lang
                   ~source:q.text
                  : Diagres.Views.view))
            pool;
          Some t)
  in
  let st =
    { workload; traced; pool; db; schemas;
      env = Ra.Typecheck.env_of_database db; registry;
      rng = W.update_rng ~seed; round = 0;
      budget =
        (if oracle then None
         else Option.map (fun mb -> mb *. 1048576.) spec.W.budget_mb);
      spans = []; fields = []; start = (0., 0L); armed = false }
  in
  install_budget st;
  let warmup_s, () = if oracle then (0., ()) else timed (fun () -> warm_up st) in
  Printf.printf "ready db_s=%.6f register_s=%.6f warmup_s=%.6f\n%!" db_s
    register_s warmup_s;
  st

(** The worker's main loop: set up, then answer commands until [quit] or
    end of input. *)
let main ~oracle ~workload ~seed ~traced =
  let st = setup ~oracle ~workload ~seed ~traced in
  let rec loop () =
    match input_line stdin with
    | exception End_of_file -> ()
    | "quit" -> Printf.printf "bye rss_kb=%d\n%!" (peak_rss_kb ())
    | line ->
      handle st line;
      loop ()
  in
  loop ()
