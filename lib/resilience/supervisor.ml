(* Supervised execution for long measurement campaigns.

   [supervise] wraps one (proxy × build × machine) measurement so that
   nothing a single row does can take the batch down:

   - any exception escaping the task (a compiler or backend crash, not
     just an engine fault) is captured as a structured [Fault.Internal]
     dead row instead of unwinding the whole run;
   - every attempt gets a fresh wall-clock watchdog (threaded down to
     the engine scheduler via [Device.Launch_opts.watchdog]) so a wedged
     launch surfaces as [Fault.Deadline] within [sv_deadline_s] seconds;
   - rows that failed with a *transient* fault kind are retried up to
     [sv_retries] times with seeded exponential backoff — the drain
     applies fault injection only on attempt 0, so an injected transient
     re-validates clean on retry;
   - a per-(proxy × build × machine) circuit breaker counts consecutive
     failures and, once [sv_breaker_threshold] is reached, skips
     further repeats of that configuration outright ("skipped" rows),
     keeping a known-dead config from burning the rest of the batch's
     budget.

   The clock and sleep are injectable so every state transition is
   testable without wall-clock time; the PRNG seeding makes the backoff
   jitter sequence reproducible. *)

module E = Ozo_harness.Experiments
module Fault = Ozo_vgpu.Fault
module Trace = Ozo_obs.Trace
module Prng = Ozo_util.Prng

type opts = {
  sv_retries : int;             (* retries after the first attempt *)
  sv_backoff_s : float;         (* backoff base; doubles per attempt *)
  sv_deadline_s : float;        (* per-launch watchdog; <= 0 disables *)
  sv_breaker_threshold : int;   (* consecutive failures before open *)
  sv_seed : int;                (* backoff-jitter PRNG seed *)
  sv_transient : Fault.kind list; (* fault kinds worth retrying *)
}

let default =
  { sv_retries = 2; sv_backoff_s = 0.05; sv_deadline_s = 10.0;
    sv_breaker_threshold = 3; sv_seed = 42; sv_transient = [ Fault.Deadline ] }

type t = {
  t_opts : opts;
  t_clock : unit -> float;
  t_sleep : float -> unit;
  t_prng : Prng.t;
  t_trace : Trace.ctx;
  (* consecutive-failure count per (proxy, build, machine) *)
  t_breaker : (string * string * string, int) Hashtbl.t;
}

let create ?clock ?sleep ?(trace = Trace.null) (opts : opts) : t =
  { t_opts = opts;
    t_clock = (match clock with Some c -> c | None -> Unix.gettimeofday);
    t_sleep =
      (match sleep with
      | Some s -> s
      | None -> fun d -> if d > 0.0 then Unix.sleepf d);
    t_prng = Prng.create opts.sv_seed;
    t_trace = trace;
    t_breaker = Hashtbl.create 16 }

let failures t key =
  match Hashtbl.find_opt t.t_breaker key with Some n -> n | None -> 0

let breaker_open t key =
  t.t_opts.sv_breaker_threshold > 0
  && failures t key >= t.t_opts.sv_breaker_threshold

let count t key (m : E.measurement) =
  if m.E.r_breaker <> "skipped" then
    match m.E.r_check with
    | Ok () -> Hashtbl.replace t.t_breaker key 0
    | Error _ -> Hashtbl.replace t.t_breaker key (failures t key + 1)

(* Feed a replayed journal row into the breaker under its own (proxy,
   build, machine), so a resumed drain restarts with exactly the breaker
   state it died with. *)
let note t (m : E.measurement) =
  count t (m.E.r_proxy, m.E.r_build, m.E.r_machine) m

(* a fresh watchdog armed now; one per attempt, so retries get a full
   deadline of their own *)
let watchdog t : (unit -> bool) option =
  if t.t_opts.sv_deadline_s <= 0.0 then None
  else begin
    let deadline = t.t_clock () +. t.t_opts.sv_deadline_s in
    Some (fun () -> t.t_clock () > deadline)
  end

(* exponential backoff with seeded jitter in [0.5, 1.5) of the base *)
let backoff t attempt =
  t.t_opts.sv_backoff_s
  *. float_of_int (1 lsl attempt)
  *. (0.5 +. Prng.float t.t_prng)

let transient t kind = List.mem kind t.t_opts.sv_transient

let supervise t ~proxy ~build ~machine
    (task : attempt:int -> watchdog:(unit -> bool) option -> E.measurement) :
    E.measurement =
  let key = (proxy, build, machine) in
  (* every row this function makes carries the key it is counted under *)
  let dead f = E.dead_measurement ~machine ~proxy ~build f in
  if breaker_open t key then begin
    let f =
      Fault.make Fault.Internal
        (Printf.sprintf
           "circuit breaker open for %s/%s (%d consecutive failures); \
            configuration skipped"
           proxy build (failures t key))
    in
    Trace.instant t.t_trace ~cat:"supervisor"
      ~args:
        [ ("proxy", Trace.Str proxy); ("build", Trace.Str build);
          ("breaker", Trace.Str "skipped") ]
      "breaker-skip";
    { (dead f) with E.r_breaker = "skipped" }
  end
  else begin
    let deadline_hit = ref false in
    let rec go attempt =
      let m =
        try task ~attempt ~watchdog:(watchdog t)
        with e ->
          (* host-side crash: the compiler/backend blew up outside the
             engine's fault discipline — capture, don't unwind *)
          let f =
            Fault.make Fault.Internal
              ("host-side crash: " ^ Printexc.to_string e)
          in
          dead f
      in
      (match m.E.r_fault with
      | Some f when f.Fault.f_kind = Fault.Deadline -> deadline_hit := true
      | _ -> ());
      match (m.E.r_check, m.E.r_fault) with
      | Error _, Some f
        when transient t f.Fault.f_kind && attempt < t.t_opts.sv_retries ->
        let d = backoff t attempt in
        Trace.instant t.t_trace ~cat:"supervisor"
          ~args:
            [ ("proxy", Trace.Str proxy); ("build", Trace.Str build);
              ("attempt", Trace.Int attempt);
              ("fault", Trace.Str (Fault.kind_name f.Fault.f_kind));
              ("backoff_s", Trace.Float d) ]
          "retry";
        t.t_sleep d;
        go (attempt + 1)
      | _ -> (m, attempt)
    in
    let m, attempts = go 0 in
    count t key m;
    let st = if breaker_open t key then "open" else "closed" in
    let m =
      { m with E.r_retries = attempts; r_deadline_hit = !deadline_hit;
        r_breaker = st }
    in
    if attempts > 0 || !deadline_hit || st <> "closed" then
      Trace.instant t.t_trace ~cat:"supervisor"
        ~args:
          [ ("proxy", Trace.Str proxy); ("build", Trace.Str build);
            ("retries", Trace.Int attempts);
            ("deadline_hit", Trace.Str (if !deadline_hit then "y" else "n"));
            ("breaker", Trace.Str st) ]
        "supervised";
    m
  end
