(* The one batch loop: every front end that runs more than one
   measurement — [ozo campaign], [ozo serve], [ozo sanitize] and the
   cross-machine matrix — is a generator of (proxy, request) rows handed
   to [drain], the only row loop in the system. Each row the drain takes
   is, in order:

   - supervised: exceptions become dead rows, every attempt gets its own
     wall-clock watchdog, transient faults retry with seeded backoff and
     a per-(proxy, build, machine) circuit breaker skips known-dead
     configurations. The request's fault injection is armed on attempt
     0 only, so an injected transient re-validates clean on retry;
   - compiled through the content-addressed [Cache]: the first
     occurrence of a (linked IR, pipeline, rung, machine, cost) key
     compiles cold, every duplicate after it skips straight to the
     cached backend artifact. A hit returns the very artifact a cold
     compile would have produced, so rows are bit-identical either way
     modulo the trailing cache/latency columns;
   - timed (wall-clock latency per row) and appended to the crash-safe
     [Journal] when one is named.

   With [sv_resume] the journal's rows are replayed verbatim (no
   re-measurement) and fed through the breaker, and their compiles go
   through the cache without a launch, so the drain restarts with the
   supervisor and cache state it died with; live measurement picks up at
   the first un-journaled row and reports the cache disposition of an
   uninterrupted run. [sv_abort_after] is a test hook: the drain raises
   [Service_error] after appending that many fresh rows, simulating a
   mid-run kill without signals.

   Concurrency lives *inside* each launch: [sv_domains] shards every
   request's team loop across the OCaml domain pool, which keeps results
   independent of the domain count while the row order stays the
   journal's sequence order.

   Stats report the cache hit rate, end-to-end launches/sec, and
   nearest-rank p50/p95/p99 over per-row wall-clock latency. *)

module E = Ozo_harness.Experiments
module C = Ozo_core.Codesign
module Request = Ozo_core.Request
module Proxy = Ozo_proxies.Proxy
module Device = Ozo_vgpu.Device
module Engine = Ozo_vgpu.Engine
module Faultinject = Ozo_vgpu.Faultinject
module Machine = Ozo_backend.Machine
module Pipeline = Ozo_opt.Pipeline
module Trace = Ozo_obs.Trace
module Supervisor = Ozo_resilience.Supervisor
module Journal = Ozo_resilience.Journal

(* One option record for every generator. A generator reads the fields
   that shape its rows; the drain reads the rest. *)
type opts = {
  sv_small : bool; (* use the reduced test-size workloads *)
  sv_repeat : int; (* passes over the rows; >1 warms the cache and exercises the breaker *)
  sv_domains : int; (* OCaml domains per launch; results identical at any value *)
  sv_exec : Engine.exec; (* executor; results identical on both *)
  sv_machine : Machine.t; (* machine every row runs under (the matrix sweeps its own) *)
  sv_cache_cap : int option; (* max cached compiles; None = unbounded *)
  sv_check_assumes : bool;
  sv_sanitize : bool;
  sv_inject : Faultinject.spec option; (* armed on each row's first attempt *)
  sv_journal : string option;
  sv_resume : bool; (* replay [sv_journal] and continue after its last row *)
  sv_abort_after : int option; (* fail after N fresh rows (test hook) *)
  sv_sup : Supervisor.opts;
}

let default =
  { sv_small = false; sv_repeat = 1; sv_domains = 1; sv_exec = Engine.Exec_ir;
    sv_machine = Machine.vgpu; sv_cache_cap = None; sv_check_assumes = false;
    sv_sanitize = false; sv_inject = None; sv_journal = None; sv_resume = false;
    sv_abort_after = None; sv_sup = Supervisor.default }

type stats = {
  st_requests : int; (* rows measured by this call (replayed rows excluded) *)
  st_cache : Cache.stats;
  st_hit_rate : float; (* hits / (hits + misses), over compile lookups *)
  st_wall_us : float; (* the whole call, row generation included *)
  st_launches_per_sec : float;
  st_p50_us : float; (* nearest-rank percentiles of per-request latency *)
  st_p95_us : float;
  st_p99_us : float;
}

exception Service_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Service_error s)) fmt

(* ---- the request file -------------------------------------------------- *)

(* One request per line: "<proxy> <build>", '#' starts a comment, blank
   lines are skipped. Build names are the standard rows of
   [Experiments.build_names]. *)
let parse_requests (text : string) : (string * string) list =
  let lines = String.split_on_char '\n' text in
  List.concat
    (List.mapi
       (fun i line ->
         let line =
           match String.index_opt line '#' with
           | Some j -> String.sub line 0 j
           | None -> line
         in
         match
           String.split_on_char ' ' line
           |> List.concat_map (String.split_on_char '\t')
           |> List.filter (fun s -> s <> "")
         with
         | [] -> []
         | [ proxy; build ] -> [ (proxy, build) ]
         | _ -> fail "requests line %d: expected \"<proxy> <build>\"" (i + 1))
       lines)

let load_requests (path : string) : (string * string) list =
  let ic = try open_in path with Sys_error e -> fail "cannot read requests: %s" e in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> parse_requests (In_channel.input_all ic))

(* ---- row building blocks ----------------------------------------------- *)

let resolve_proxy (o : opts) name : Proxy.t =
  match Ozo_proxies.Registry.find ~small:o.sv_small name with
  | Some p -> p
  | None -> fail "unknown proxy %s" name

let build_of_name p name =
  match E.build_of_name p name with Ok b -> b | Error e -> raise (Service_error e)

(* the standard harness request for one row, every option folded in *)
let request (o : opts) ~trace (p : Proxy.t) (b : C.build) : Request.t =
  E.request_for ~check_assumes:o.sv_check_assumes ~sanitize:o.sv_sanitize
    ?inject:o.sv_inject ~trace ~domains:o.sv_domains ~exec:o.sv_exec
    ~machine:o.sv_machine p b

let repeated (o : opts) rows = List.concat (List.init (max 1 o.sv_repeat) (fun _ -> rows))

(* appended only off the default so journals that predate the option
   still resume *)
let machine_suffix (o : opts) =
  if o.sv_machine.Machine.mc_name = "vgpu" then ""
  else ";machine=" ^ o.sv_machine.Machine.mc_name

let inject_tag = function
  | Some s -> Faultinject.spec_to_string s ^ "#" ^ string_of_int s.Faultinject.s_seed
  | None -> "-"

(* ---- percentiles ------------------------------------------------------- *)

(* nearest-rank percentile over a sorted sample: the smallest value with
   at least p% of the sample at or below it *)
let percentile (sorted : float array) (p : float) : float =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

(* ---- the drain --------------------------------------------------------- *)

(* journaled rows to replay, [] unless resuming *)
let replay (o : opts) ~fingerprint : E.measurement list =
  if not o.sv_resume then []
  else
    match o.sv_journal with
    | None -> fail "--resume requires a journal path"
    | Some path -> (
      match Journal.load ~path with
      | Ok (fp, entries) when fp = fingerprint ->
        List.map (fun e -> e.Journal.e_m) entries
      | Ok _ -> fail "journal fingerprint mismatch: it records a different run"
      | Error e -> fail "cannot resume: %s" e)

(* Drain the rows [rows ()] generates, in order. [cache] lets a caller
   keep the compile cache alive across calls (cold pass / warm pass
   benchmarking); stats always cover only this call's lookups, so a warm
   pass over a pre-filled cache reports its own 100% hit rate. [rows] is
   a thunk so the wall time covers row generation (proxy construction)
   too. [clock] (seconds) and [sleep] are the supervisor's, injectable
   for tests. *)
let drain ?cache ?(clock = Unix.gettimeofday) ?sleep ?(trace = Trace.null) (o : opts)
    ~fingerprint (rows : unit -> (Proxy.t * Request.t) list) : E.measurement list * stats =
  let wall () = clock () *. 1e6 in
  let t_start = wall () in
  let rows = rows () in
  let cache =
    match cache with
    | Some c -> c
    | None -> Cache.create ~trace ?cap:o.sv_cache_cap ()
  in
  let sup = Supervisor.create ~clock ?sleep ~trace o.sv_sup in
  let replayed = Array.of_list (replay o ~fingerprint) in
  let n_replayed = min (Array.length replayed) (List.length rows) in
  (* A replayed row still drives the breaker, and its compiles go through
     the cache in the order the row made them: the primary, then each
     ladder rung it fell back through (a skipped row compiled nothing).
     No launch. A compile that crashed when the row was measured crashes
     again here and leaves nothing cached, as it did then. *)
  let restore (p, r) (m : E.measurement) =
    Supervisor.note sup m;
    if m.E.r_breaker <> "skipped" then begin
      let b = r.Request.rq_build in
      let k = Proxy.kernel_for p b.C.b_abi in
      let rec rungs pipe n =
        let r = { r with Request.rq_build = { b with C.b_pipe = pipe } } in
        (try ignore (Cache.compile_request cache r k) with _ -> ());
        if n > 0 then Option.iter (fun w -> rungs w (n - 1)) (Pipeline.weaken pipe)
      in
      rungs b.C.b_pipe (List.length m.E.r_fallbacks)
    end
  in
  List.iteri (fun i row -> if i < n_replayed then restore row replayed.(i)) rows;
  (* stats cover the rows this call measures, not the restore *)
  let cs0 = Cache.stats cache in
  let writer =
    Option.map
      (fun path ->
        if o.sv_resume then Journal.reopen ~path else Journal.start ~path ~fingerprint)
      o.sv_journal
  in
  let latencies = ref [] and fresh = ref 0 in
  let measure i (p, r) =
    let proxy = p.Proxy.p_name and build = r.Request.rq_build.C.b_label in
    let machine = r.Request.rq_machine.Machine.mc_name in
    (* the primary compile's disposition labels the row; ladder
       recompiles after a fault hit the cache under their own keys *)
    let disp = ref "-" in
    let compiler r k =
      let c, d = Cache.compile_request cache r k in
      (if !disp = "-" then disp := match d with `Hit -> "hit" | `Miss -> "miss");
      c
    in
    Trace.begin_span trace ~cat:"serve" "serve-request"
      ~args:
        [ ("proxy", Trace.Str proxy); ("build", Trace.Str build); ("seq", Trace.Int i) ];
    let t0 = wall () in
    let m =
      Supervisor.supervise sup ~proxy ~build ~machine (fun ~attempt ~watchdog ->
          let lo = r.Request.rq_opts in
          let inject = if attempt = 0 then lo.Device.Launch_opts.inject else None in
          E.measure_request ~compiler p
            { r with Request.rq_opts = { lo with Device.Launch_opts.watchdog; inject } })
    in
    let latency = wall () -. t0 in
    Trace.end_span trace ~args:[ ("cache", Trace.Str !disp) ] ();
    latencies := latency :: !latencies;
    let m = { m with E.r_cache_disp = !disp; r_latency_us = latency } in
    Option.iter (fun w -> Journal.append w ~seq:i m) writer;
    incr fresh;
    match o.sv_abort_after with
    | Some n when !fresh >= n ->
      fail "aborted after %d fresh rows (test hook)" n
    | _ -> m
  in
  let out =
    Fun.protect
      ~finally:(fun () -> Option.iter Journal.close writer)
      (fun () ->
        List.mapi (fun i row -> if i < n_replayed then replayed.(i) else measure i row) rows)
  in
  let wall_us = wall () -. t_start in
  let cs_end = Cache.stats cache in
  (* this call's lookups only: the cache may predate us *)
  let cs =
    { Cache.cs_entries = cs_end.Cache.cs_entries;
      cs_hits = cs_end.Cache.cs_hits - cs0.Cache.cs_hits;
      cs_misses = cs_end.Cache.cs_misses - cs0.Cache.cs_misses;
      cs_evictions = cs_end.Cache.cs_evictions - cs0.Cache.cs_evictions }
  in
  let sorted = Array.of_list !latencies in
  Array.sort compare sorted;
  let n = Array.length sorted in
  (if Trace.enabled trace then
     Trace.instant trace ~cat:"serve" "serve-stats"
       ~args:
         [ ("requests", Trace.Int n); ("hits", Trace.Int cs.Cache.cs_hits);
           ("misses", Trace.Int cs.Cache.cs_misses);
           ("evictions", Trace.Int cs.Cache.cs_evictions) ]);
  let stats =
    { st_requests = n; st_cache = cs; st_hit_rate = Cache.hit_rate cs;
      st_wall_us = wall_us;
      st_launches_per_sec =
        (if wall_us > 0.0 then float_of_int n /. (wall_us /. 1e6) else 0.0);
      st_p50_us = percentile sorted 50.0; st_p95_us = percentile sorted 95.0;
      st_p99_us = percentile sorted 99.0 }
  in
  (out, stats)

(* ---- serve: a request queue -------------------------------------------- *)

(* service identity for the journal header, queue content included: a
   journal written against one request list must not silently continue
   another *)
let fingerprint (o : opts) (queue : (string * string) list) : string =
  Printf.sprintf
    "serve;queue=%s;small=%b;repeat=%d;sanitize=%b;assumes=%b;domains=%d;cap=%s"
    (Digest.to_hex
       (Digest.string
          (String.concat ";" (List.map (fun (p, b) -> p ^ " " ^ b) queue))))
    o.sv_small o.sv_repeat o.sv_sanitize o.sv_check_assumes o.sv_domains
    (match o.sv_cache_cap with Some c -> string_of_int c | None -> "-")
  ^ machine_suffix o
  ^ (if o.sv_inject = None then "" else ";inject=" ^ inject_tag o.sv_inject)
  ^ if o.sv_exec = Engine.Exec_ir then "" else ";exec=" ^ Engine.exec_name o.sv_exec

(* The queue in file order, [sv_repeat] times over; each distinct proxy
   name is resolved once. *)
let run ?cache ?clock ?sleep ?(trace = Trace.null) (o : opts)
    (queue : (string * string) list) : E.measurement list * stats =
  let rows () =
    let proxies = Hashtbl.create 8 in
    let proxy name =
      match Hashtbl.find_opt proxies name with
      | Some p -> p
      | None ->
        let p = resolve_proxy o name in
        Hashtbl.add proxies name p;
        p
    in
    repeated o
      (List.map
         (fun (pname, bname) ->
           let p = proxy pname in
           (p, request o ~trace p (build_of_name p bname)))
         queue)
  in
  drain ?cache ?clock ?sleep ~trace o ~fingerprint:(fingerprint o queue) rows

(* ---- campaign: the standard build sweep -------------------------------- *)

let campaign_fingerprint (o : opts) ~(proxies : string list) : string =
  Printf.sprintf
    "proxies=%s;small=%b;repeat=%d;inject=%s;sanitize=%b;assumes=%b;domains=%d;exec=%s"
    (String.concat "," proxies) o.sv_small o.sv_repeat (inject_tag o.sv_inject)
    o.sv_sanitize o.sv_check_assumes o.sv_domains (Engine.exec_name o.sv_exec)
  ^ machine_suffix o

(* Row order: for each proxy, for each repeat, for each standard build,
   so the journal's sequence numbers map 1:1 onto row indices. *)
let campaign ?cache ?clock ?sleep ?(trace = Trace.null) (o : opts)
    ~(proxies : string list) : E.measurement list * stats =
  let rows () =
    List.concat_map
      (fun name ->
        let p = resolve_proxy o name in
        repeated o (List.map (fun b -> (p, request o ~trace p b)) (E.builds_for p)))
      proxies
  in
  drain ?cache ?clock ?sleep ~trace o
    ~fingerprint:(campaign_fingerprint o ~proxies) rows

let pp_stats ppf (s : stats) =
  Fmt.pf ppf
    "serve: %d requests, cache %d hit / %d miss / %d evicted (%.0f%% hit \
     rate), %d live entries@.serve: %.1f launches/sec, latency p50 %.1fus \
     p95 %.1fus p99 %.1fus@."
    s.st_requests s.st_cache.Cache.cs_hits s.st_cache.Cache.cs_misses
    s.st_cache.Cache.cs_evictions
    (100.0 *. s.st_hit_rate)
    s.st_cache.Cache.cs_entries s.st_launches_per_sec s.st_p50_us s.st_p95_us
    s.st_p99_us
