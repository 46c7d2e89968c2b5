(** The driver: one process that runs a workload as a closed loop (one
    client, one request outstanding) against a worker process, enforces
    the per-request deadline by killing and respawning the worker, checks
    every answer against an independent oracle, and turns the replies into
    the end-to-end and per-layer metrics. *)

module W = Workload

let now = Proc.now

(* ---------------- worker replies ---------------- *)

type reply = {
  status : string;  (** [ok], [refused], [wrong] or [crash] *)
  fields : (string * string) list;
  spans : (string * int64 * int64) list;  (** layer, start ns, duration ns *)
}

let parse_reply line =
  match String.split_on_char ' ' line with
  | [] -> { status = ""; fields = []; spans = [] }
  | status :: rest ->
    let fields, spans =
      List.fold_left
        (fun (fs, ss) tok ->
          match String.index_opt tok '=' with
          | None -> (fs, ss)
          | Some i -> (
            let k = String.sub tok 0 i in
            let v = String.sub tok (i + 1) (String.length tok - i - 1) in
            match (k, String.split_on_char ',' v) with
            | "span", [ n; t0; d ] ->
              (fs, (n, Int64.of_string t0, Int64.of_string d) :: ss)
            | _ -> ((k, v) :: fs, ss)))
        ([], []) rest
    in
    { status; fields = List.rev fields; spans = List.rev spans }

let get r k = List.assoc_opt k r.fields
let get_ns r k = match get r k with Some v -> Int64.of_string v | None -> 0L
let get_int r k = match get r k with Some v -> int_of_string v | None -> 0

let get_float r k =
  match get r k with Some v -> float_of_string v | None -> 0.

(* ---------------- attempts ---------------- *)

type failure =
  | Timeout of string  (** what stopped it: [deadline] or [budget] *)
  | Refused of string  (** the diagnostic's code *)
  | Wrong of string
  | Crash of string

let failure_kind = function
  | Timeout _ -> "timeout"
  | Refused _ -> "refused"
  | Wrong _ -> "wrong"
  | Crash _ -> "crash"

let failure_detail = function
  | Timeout what | Refused what -> what
  | Wrong why | Crash why -> why

(** One scheduled request. *)
type attempt = {
  q : int;  (** pool index (views: the view read) *)
  mutable failed : failure option;
  mutable wait_ms : float;
      (** completed: worker latency; failed: client's wait, at least the
          deadline *)
  reply : reply option;
  round : int;  (** views: the worker's round number *)
  pid : int;  (** the worker that served it; 0 if not issued *)
  sent_ns : int64;
  wall_ns : int64;  (** driver-observed, check excluded *)
}

(* ---------------- the run context ---------------- *)

type ctx = {
  workload : W.name;
  spec : W.spec;
  seed : int;
  pool : W.query array;
  deadline_ns : int64;
  oracle : (int, string) Hashtbl.t;  (** pool index -> answer digest *)
  timed_out : (int, failure * float) Hashtbl.t;
      (** pool index -> its timeout and wait (ms) *)
  mutable setups : (float * float * float * float) list;
      (** total, db, register, warm-up (s) *)
  mutable rss_kb : int list;  (** peak RSS of workers that exited normally *)
  mutable oracle_s : float;
  mutable unchecked : int;  (** answers without an oracle to compare to *)
}

exception Setup_failed of string

let worker_args ctx ~role ~traced =
  [ "--worker"; role; "--workload"; W.to_string ctx.workload; "--seed";
    string_of_int ctx.seed; "--trace"; (if traced then "1" else "0") ]

(** Spawn a worker and wait for [ready]; the wait is one set-up sample. *)
let start ?(role = "serve") ctx ~traced =
  let t0 = now () in
  let p = Proc.spawn (worker_args ctx ~role ~traced) in
  match Proc.read_line p ~deadline:(Int64.add t0 (Proc.ns_of_s 300.)) with
  | `Line l when String.length l >= 5 && String.sub l 0 5 = "ready" ->
    let total = Int64.to_float (Int64.sub (now ()) t0) /. 1e9 in
    let r = parse_reply l in
    if role = "serve" then
      ctx.setups <-
        (total, get_float r "db_s", get_float r "register_s",
         get_float r "warmup_s")
        :: ctx.setups;
    p
  | _ ->
    Proc.kill p;
    raise (Setup_failed (role ^ " worker did not become ready"))

let retire ctx p =
  match Proc.quit p ~timeout_s:30. with
  | Some kb -> ctx.rss_kb <- kb :: ctx.rss_kb
  | None -> ()

type outcome =
  | Replied of reply * int64  (** wall time, send to reply *)
  | Timed_out of int64
  | Died of int64

(** Send one command and wait for its reply until the deadline; on
    timeout the worker is killed.  A worker that replies [timeout] (its
    request passed the work budget) exits, and is reaped here. *)
let issue (p : Proc.t) ~deadline_ns cmd =
  let t0 = now () in
  match Proc.send p cmd with
  | exception Sys_error _ ->
    Proc.reap p;
    Died 0L
  | () -> (
    match Proc.read_line p ~deadline:(Int64.add t0 deadline_ns) with
    | `Line l ->
      let r = parse_reply l in
      if r.status = "timeout" then Proc.reap p;
      Replied (r, Int64.sub (now ()) t0)
    | `Timeout ->
      let wall = Int64.sub (now ()) t0 in
      Proc.kill p;
      Timed_out wall
    | `Eof ->
      Proc.reap p;
      Died (Int64.sub (now ()) t0))

(* ---------------- the oracle phases ---------------- *)

let oracle_deadline_ns = Proc.ns_of_s 60.

(* Answer digests for [cmds] (command, key) from a dedicated oracle
   worker, respawned if an oracle itself fails. *)
let run_oracle ctx cmds =
  let t0 = now () in
  let digests = Hashtbl.create 64 in
  let p = ref (start ~role:"oracle" ctx ~traced:false) in
  List.iter
    (fun (cmd, key) ->
      if not !p.Proc.alive then p := start ~role:"oracle" ctx ~traced:false;
      match issue !p ~deadline_ns:oracle_deadline_ns cmd with
      | Replied (r, _) when r.status = "ok" -> (
        match get r "dig" with
        | Some d -> Hashtbl.replace digests key d
        | None -> ())
      | Replied _ | Timed_out _ | Died _ -> ())
    cmds;
  if !p.Proc.alive then ignore (Proc.quit !p ~timeout_s:30. : int option);
  ctx.oracle_s <- ctx.oracle_s +. (Int64.to_float (Int64.sub (now ()) t0) /. 1e9);
  digests

(* ---------------- the measured phases ---------------- *)

let ms ns = Int64.to_float ns /. 1e6

(* A failed request's place in the percentiles, from its wall time. *)
let failed_wait ctx wall_ns =
  Stats.entry ~deadline_ms:(ms ctx.deadline_ns) ~failed:true (ms wall_ns)

(* The client-visible failure of an attempt that got no usable reply. *)
let failed_attempt ?reply ~q ~round ~pid ~sent ~wall ctx failure =
  { q; failed = Some failure; reply; round; pid; sent_ns = sent; wall_ns = wall;
    wait_ms = failed_wait ctx wall }

(* Turn one outcome into an attempt.  The worker's own check verdict
   ([wrong]) and the driver's oracle comparison both make a wrong answer. *)
let attempt_of ctx ~q ~round ~pid ~sent outcome =
  match outcome with
  | Replied (r, wall) -> (
    let chk = get_ns r "chk" in
    let wall = Int64.sub wall chk in
    match r.status with
    | "ok" ->
      let lat = ms (get_ns r "lat") in
      { q; failed = None; reply = Some r; round; pid; sent_ns = sent;
        wall_ns = wall; wait_ms = lat }
    | "refused" ->
      failed_attempt ~reply:r ~q ~round ~pid ~sent ~wall ctx
        (Refused (Option.value (get r "what") ~default:"?"))
    | "wrong" ->
      failed_attempt ~reply:r ~q ~round ~pid ~sent ~wall ctx
        (Wrong (Option.value (get r "why") ~default:"?"))
    | "timeout" ->
      failed_attempt ~reply:r ~q ~round ~pid ~sent ~wall ctx
        (Timeout (Option.value (get r "what") ~default:"?"))
    | _ ->
      failed_attempt ~reply:r ~q ~round ~pid ~sent ~wall ctx
        (Crash (Option.value (get r "what") ~default:r.status)))
  | Timed_out wall ->
    failed_attempt ~q ~round ~pid ~sent ~wall ctx (Timeout "deadline")
  | Died wall ->
    failed_attempt ~q ~round ~pid ~sent ~wall ctx (Crash "worker exited")

(* Fail a completed attempt whose answer digest differs from the oracle's
   [want]: it becomes a wrong answer and enters the percentiles like every
   failure. *)
let check_digest ctx (a : attempt) ~what want =
  match (a.failed, a.reply) with
  | None, Some r -> (
    match (want, get r "dig") with
    | Some want, Some got when want = got -> ()
    | Some want, got ->
      a.failed <-
        Some
          (Wrong
             (Printf.sprintf "%s %s, oracle %s" what
                (Option.value got ~default:"none") want));
      a.wait_ms <- failed_wait ctx a.wall_ns
    | None, _ -> ctx.unchecked <- ctx.unchecked + 1)
  | _ -> ()

(* Compare a completed query's answer with the oracle's. *)
let check_query ctx (a : attempt) =
  check_digest ctx a ~what:"answer" (Hashtbl.find_opt ctx.oracle a.q)

type phase = {
  attempts : attempt list;  (** in schedule order *)
  wall_s : float;  (** measured wall time: requests incl. deadline waits *)
}

(** How a phase ends: after a fixed number of passes, or once it has
    scheduled [min_requests] and run [seconds], at a pass boundary. *)
type stop = Passes of int | Budget of float

let finished stop ~passes ~attempted ~elapsed_s ~min_requests =
  match stop with
  | Passes n -> passes >= n
  | Budget seconds -> attempted >= min_requests && elapsed_s >= seconds

(* One measured phase: whole passes until [stop].  ask-mix and analytics
   pass over the pool in a seeded shuffled order; a query that timed out is
   not issued again in this run, and its later attempts fail at the wait of
   its timeout.  views passes are cycles of rounds (one update batch, then
   a read of the next view, round-robin); a respawned worker starts its
   rounds, and so the update stream, from the beginning. *)
let phase ctx ~traced ~stop =
  let views = ctx.workload = W.Views in
  let w = ref (start ctx ~traced) in
  let round = ref 0 in
  let attempts = ref [] and wall = ref 0L in
  let t_start = now () in
  let n = Array.length ctx.pool in
  let one q =
    let sent = now () in
    match Hashtbl.find_opt ctx.timed_out q with
    | Some (failure, wait) ->
      { q; failed = Some failure; reply = None; round = 0; pid = 0;
        sent_ns = sent; wall_ns = 0L; wait_ms = wait }
    | None ->
      if not !w.Proc.alive then begin
        w := start ctx ~traced;
        round := 0
      end;
      let r = !round in
      incr round;
      let q, cmd =
        if views then (r mod n, Printf.sprintf "w %d" r)
        else (q, Printf.sprintf "q %d" q)
      in
      let out = issue !w ~deadline_ns:ctx.deadline_ns cmd in
      let a = attempt_of ctx ~q ~round:r ~pid:!w.Proc.pid ~sent out in
      (match a.failed with
      | Some (Timeout _ as f) when not views ->
        Hashtbl.replace ctx.timed_out q (f, a.wait_ms)
      | _ -> ());
      wall := Int64.add !wall a.wall_ns;
      if not views then check_query ctx a;
      a
  in
  let rec pass k =
    let order =
      if views then Array.init n Fun.id else W.pass_order ~seed:ctx.seed ~pass:k n
    in
    Array.iter (fun q -> attempts := one q :: !attempts) order;
    if
      not
        (finished stop ~passes:(k + 1) ~attempted:(List.length !attempts)
           ~elapsed_s:(Int64.to_float (Int64.sub (now ()) t_start) /. 1e9)
           ~min_requests:ctx.spec.W.min_requests)
    then pass (k + 1)
  in
  pass 0;
  if !w.Proc.alive then retire ctx !w;
  { attempts = List.rev !attempts; wall_s = Int64.to_float !wall /. 1e9 }

(* Check every completed views read against the oracle's replay of the
   same update stream. *)
let check_reads ctx (phases : phase list) =
  let rounds =
    List.concat_map
      (fun ph ->
        List.filter_map
          (fun a -> if a.failed = None then Some a.round else None)
          ph.attempts)
      phases
  in
  let last = List.fold_left max (-1) rounds in
  let digests =
    run_oracle ctx
      (List.init (last + 1) (fun r -> (Printf.sprintf "vo %d" r, r)))
  in
  List.iter
    (fun ph ->
      List.iter
        (fun a ->
          check_digest ctx a ~what:"read" (Hashtbl.find_opt digests a.round))
        ph.attempts)
    phases

(* ---------------- metrics ---------------- *)

let completed ph = List.filter (fun a -> a.failed = None) ph.attempts
let failed ph = List.filter (fun a -> a.failed <> None) ph.attempts

let latencies ph = List.map (fun a -> a.wait_ms) ph.attempts

(* Per-kind latencies of the views rounds: failed rounds enter at their
   wait, like every percentile here. *)
let kind_latencies ph key =
  List.map
    (fun a ->
      match (a.failed, a.reply) with
      | None, Some r -> ms (get_ns r key)
      | _ -> a.wait_ms)
    ph.attempts

let requests_per_s ph =
  float_of_int (List.length (completed ph)) /. Float.max ph.wall_s 1e-9

let fail_ratio ph =
  float_of_int (List.length (failed ph))
  /. float_of_int (max 1 (List.length ph.attempts))

let count_kind ph kind =
  List.length
    (List.filter
       (fun a ->
         match a.failed with Some f -> failure_kind f = kind | None -> false)
       ph.attempts)

let median_setup ctx f = Stats.median (List.map f ctx.setups)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let end_to_end ctx ph =
  [ m "setup_s" "s" (median_setup ctx (fun (t, _, _, _) -> t));
    m "latency_ms.p50" "ms" (Stats.percentile 50. (latencies ph));
    m "latency_ms.p90" "ms" (Stats.percentile 90. (latencies ph));
    m "requests_per_s" "1/s" (requests_per_s ph) ]

(* Sum of a layer's span durations over the completed requests, in ms per
   completed request; 0 when the layer did not run. *)
let layer_ms replies name =
  let total =
    List.fold_left
      (fun acc r ->
        List.fold_left
          (fun acc (n, _, d) -> if n = name then Int64.add acc d else acc)
          acc r.spans)
      0L replies
  in
  ms total /. float_of_int (max 1 (List.length replies))

let sum_field replies f k =
  List.fold_left (fun acc r -> acc +. f r k) 0. replies

let counter replies name =
  sum_field replies (fun r k -> float_of_int (get_int r k)) ("c." ^ name)

let ratio hit miss = if hit +. miss = 0. then 0. else hit /. (hit +. miss)

(** The per-layer metrics: request-kind latencies and failures from the
    untraced phase [ph], layer times and counter deltas from the traced
    phase [tr]. *)
let per_layer ctx ph tr =
  let replies = List.filter_map (fun a -> if a.failed = None then a.reply else None) tr.attempts in
  let c = counter replies in
  let nodes =
    List.filter_map
      (fun r -> Option.map float_of_string (get r "nodes"))
      replies
  in
  let pct p xs = if xs = [] then 0. else Stats.percentile p xs in
  let kind w p = if ctx.workload = w then pct p (latencies ph) else 0. in
  let views p key =
    if ctx.workload = W.Views then pct p (kind_latencies ph key) else 0.
  in
  let maintain_ms = layer_ms replies "maintain" *. float_of_int (List.length replies) in
  let delta_rows = c "view.delta_rows" in
  let p50 xs = pct 50. xs in
  let traced_p50 = p50 (latencies tr) and plain_p50 = p50 (latencies ph) in
  [ m "ask_ms.p50" "ms" (kind W.Ask_mix 50.);
    m "ask_ms.p99" "ms" (kind W.Ask_mix 99.);
    m "query_ms.p50" "ms" (kind W.Analytics 50.);
    m "query_ms.p90" "ms" (kind W.Analytics 90.);
    m "update_ms.p50" "ms" (views 50. "upd");
    m "update_ms.p90" "ms" (views 90. "upd");
    m "read_ms.p50" "ms" (views 50. "rd");
    m "read_ms.p90" "ms" (views 90. "rd");
    m "queries_per_s" "1/s" (requests_per_s ph);
    m "fail_ratio" "ratio" (fail_ratio ph);
    m "fail.timeout" "count" (float_of_int (count_kind ph "timeout"));
    m "fail.refused" "count" (float_of_int (count_kind ph "refused"));
    m "fail.wrong" "count" (float_of_int (count_kind ph "wrong"));
    m "fail.crash" "count" (float_of_int (count_kind ph "crash"));
    m "parse.ms" "ms" (layer_ms replies "parse");
    m "lower.ms" "ms" (layer_ms replies "lower");
    m "lower.ra_nodes.p50" "count" (p50 nodes);
    m "lower.ra_nodes.max" "count" (List.fold_left Float.max 0. nodes);
    m "typecheck.ms" "ms" (layer_ms replies "typecheck");
    m "plan.ms" "ms" (layer_ms replies "plan");
    m "plan_cache.hit_ratio" "ratio"
      (ratio (c "plan_cache.hit") (c "plan_cache.miss"));
    m "plan_cache.evictions" "count" (c "plan_cache.evictions");
    m "exec.ms" "ms" (layer_ms replies "exec");
    m "exec.rows_out" "count" (sum_field replies get_float "rows");
    m "exec.alloc_mb" "MB" (sum_field replies get_float "alloc" /. 1048576.);
    m "exec.major_gcs" "count" (sum_field replies get_float "majors");
    m "columnar.rows" "count" (c "columnar.rows");
    m "columnar.fallback_row_mode" "count" (c "columnar.fallback_row_mode");
    m "columnar.fallback_row_mode.op.hash-join" "count"
      (c "columnar.fallback_row_mode.op.hash-join");
    m "columnar.fallback_row_mode.op.divide" "count"
      (c "columnar.fallback_row_mode.op.divide");
    m "columnar.gathers_deferred" "count" (c "columnar.gathers_deferred");
    m "columnar.gathers_forced" "count" (c "columnar.gathers_forced");
    m "index.cache.hit_ratio" "ratio"
      (ratio (c "index.cache.hit") (c "index.cache.miss"));
    m "stats.cache.hit_ratio" "ratio"
      (ratio (c "stats.cache.hit") (c "stats.cache.miss"));
    m "pool.tasks.executed" "count" (c "pool.tasks.executed");
    m "pool.tasks.helped" "count" (c "pool.tasks.helped");
    m "pool.helper.busy_ms" "ms" (c "pool.helper.busy_ns" /. 1e6);
    m "render.ms" "ms" (layer_ms replies "render");
    m "render.panels" "count" (sum_field replies get_float "panels");
    m "apply.ms" "ms" (layer_ms replies "apply");
    m "maintain.ms" "ms" (layer_ms replies "maintain");
    m "view.delta_rows" "count" delta_rows;
    m "maintain.us_per_delta_row" "us"
      (if delta_rows = 0. then 0. else maintain_ms *. 1e3 /. delta_rows);
    m "peak_rss_mb" "MB"
      (float_of_int (List.fold_left max 0 ctx.rss_kb) /. 1024.);
    m "setup.db_s" "s" (median_setup ctx (fun (_, d, _, _) -> d));
    m "setup.register_s" "s" (median_setup ctx (fun (_, _, r, _) -> r));
    m "setup.warmup_s" "s" (median_setup ctx (fun (_, _, _, w) -> w));
    m "oracle_s" "s" ctx.oracle_s;
    m "trace.requests" "count" (float_of_int (List.length tr.attempts));
    m "tracing.overhead_ms" "ms" (traced_p50 -. plain_p50);
    m "tracing.overhead_pct" "%"
      (if plain_p50 = 0. then 0. else 100. *. (traced_p50 -. plain_p50) /. plain_p50) ]

(* ---------------- reports ---------------- *)

(** One line per failing query, by kind, with its source. *)
let failure_report ctx ph =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun a ->
      match a.failed with
      | Some f when not (Hashtbl.mem seen a.q) ->
        Hashtbl.replace seen a.q ();
        let q = ctx.pool.(a.q) in
        let n = List.length (List.filter (fun b -> b.q = a.q && b.failed <> None) ph.attempts) in
        Printf.printf "fail %s%s %s x%d: %s\n" (failure_kind f)
          (match failure_detail f with "" -> "" | d -> "[" ^ d ^ "]")
          q.W.label n
          (String.map (fun c -> if c = '\n' then ' ' else c) q.W.text)
      | _ -> ())
    ph.attempts

(** The slowest completed queries, and every query that completed within
    a factor of two of the deadline or of the work budget: the requests
    whose failure a slower host or a costlier program could flip. *)
let slowest_report ctx ph =
  let worst = Hashtbl.create 64 in
  List.iter
    (fun a ->
      let mem = match a.reply with Some r -> get_float r "mem" /. 1048576. | None -> 0. in
      match Hashtbl.find_opt worst a.q with
      | Some (w, m) -> Hashtbl.replace worst a.q (Float.max w a.wait_ms, Float.max m mem)
      | None -> Hashtbl.replace worst a.q (a.wait_ms, mem))
    (completed ph);
  let by_latency =
    List.sort (fun (_, a) (_, b) -> compare b a) (List.of_seq (Hashtbl.to_seq worst))
  in
  let near (w, mem) =
    w >= ms ctx.deadline_ns /. 2.
    || match ctx.spec.W.budget_mb with Some b -> mem >= b /. 2. | None -> false
  in
  List.iteri
    (fun i (q, (w, mem)) ->
      if i < 5 || near (w, mem) then
        Printf.printf "%s %.3fms %.1fMB %s\n"
          (if near (w, mem) then "near" else "slow")
          w mem ctx.pool.(q).W.label)
    by_latency

(** The traced phase as a Chrome trace: the driver's span per request
    and, under it, the worker's request span and one span per layer call;
    all spans of a request carry its id. *)
let write_chrome_trace ctx path tr =
  let b = Buffer.create 65536 in
  let driver = Unix.getpid () in
  let us ns = Json.Num (Int64.to_float ns /. 1e3) in
  let ev ~name ~cat ~pid ~ts ~dur ~req ~label =
    Json.Obj
      [ ("name", Json.Str name); ("cat", Json.Str cat); ("ph", Json.Str "X");
        ("ts", us ts); ("dur", us dur); ("pid", Json.Num (float_of_int pid));
        ("tid", Json.Num 1.);
        ("args", Json.Obj [ ("req", Json.Num (float_of_int req)); ("query", Json.Str label) ]) ]
  in
  let events =
    List.concat
      (List.mapi
         (fun i a ->
           let label = ctx.pool.(a.q).W.label in
           ev ~name:"request" ~cat:"driver" ~pid:driver ~ts:a.sent_ns
             ~dur:a.wall_ns ~req:i ~label
           :: (match a.reply with
              | Some r ->
                List.map
                  (fun (n, t0, d) ->
                    ev ~name:n ~cat:"worker" ~pid:a.pid
                      ~ts:t0 ~dur:d ~req:i ~label)
                  r.spans
              | None -> []))
         tr.attempts)
  in
  Json.write b (Json.Obj [ ("traceEvents", Json.Arr events); ("displayTimeUnit", Json.Str "ms") ]);
  let rec mkdir_p dir =
    if not (Sys.file_exists dir) then begin
      mkdir_p (Filename.dirname dir);
      Sys.mkdir dir 0o755
    end
  in
  mkdir_p (Filename.dirname path);
  let oc = open_out path in
  Buffer.output_buffer oc b;
  close_out oc

let result_json ~correct ~attempted ~failed metrics =
  Json.to_string
    (Json.Obj
       [ ("correct", Json.Bool correct);
         ("attempted", Json.Num (float_of_int attempted));
         ("failed", Json.Num (float_of_int failed));
         ( "metrics",
           Json.Obj
             (List.map
                (fun x ->
                  (x.name, Json.Obj [ ("value", Json.Num x.value); ("unit", Json.Str x.unit_) ]))
                metrics) ) ])

(* ---------------- a run ---------------- *)

type options = { workload : W.name; seed : int; seconds : float; trace : bool }

let context workload ~seed =
  let spec = W.spec workload in
  { workload; spec; seed; pool = W.pool workload;
    deadline_ns = Proc.ns_of_s W.deadline_s;
    oracle = Hashtbl.create 512; timed_out = Hashtbl.create 32;
    setups = []; rss_kb = []; oracle_s = 0.; unchecked = 0 }

let run (o : options) =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let ctx = context o.workload ~seed:o.seed in
  let spec = ctx.spec in
  (* oracles first, outside the timed phases (views: after, see below) *)
  if o.workload <> W.Views then begin
    let d =
      run_oracle ctx
        (List.init (Array.length ctx.pool) (fun i -> (Printf.sprintf "o %d" i, i)))
    in
    Hashtbl.iter (Hashtbl.replace ctx.oracle) d
  end;
  (* set-up samples: all but the last of [W.setups] workers only set up *)
  for _ = 2 to W.setups do
    retire ctx (start ctx ~traced:false)
  done;
  let ph = phase ctx ~traced:false ~stop:(Budget o.seconds) in
  let tr =
    if o.trace then Some (phase ctx ~traced:true ~stop:(Passes spec.W.traced_passes))
    else None
  in
  if o.workload = W.Views then check_reads ctx (ph :: Option.to_list tr);
  failure_report ctx ph;
  slowest_report ctx ph;
  if ctx.unchecked > 0 then
    Printf.printf "unchecked %d answers (no oracle answer)\n" ctx.unchecked;
  let wrong = count_kind ph "wrong" + (match tr with Some t -> count_kind t "wrong" | None -> 0) in
  let metrics =
    match tr with
    | None -> end_to_end ctx ph
    | Some tr ->
      let path =
        Printf.sprintf "perfbench/out/trace-%s-seed%d.json"
          (W.to_string o.workload) o.seed
      in
      write_chrome_trace ctx path tr;
      Printf.printf "chrome trace: %s\n" path;
      per_layer ctx ph tr
  in
  print_endline
    (result_json ~correct:(wrong = 0 && ctx.unchecked = 0)
       ~attempted:(List.length ph.attempts)
       ~failed:(List.length (failed ph)) metrics)
