(* The cross-machine campaign matrix: every proxy x build x machine, a
   row generator over the one batch loop ([Service.drain]), so every
   cell is supervised, compiled through one shared compile cache and
   journaled when [sv_journal] is set.

   Reporting reproduces the performance-portability methodology of the
   portability literature on the simulated stack:

   - *relative performance*: within one (proxy, machine) column, each
     build's speedup over the Old RT (Nightly) baseline *on that same
     machine* — the Fig. 10 normalization, repeated per machine;

   - *application efficiency*: each cell's cycles relative to the best
     build for that (proxy, machine) — in [0,1], 1 = this build is the
     fastest way to run this proxy on this machine;

   - *performance portability* (PP, Pennycook et al.): the harmonic mean
     of a build's application efficiencies across the machine set, 0 if
     the build fails anywhere — one number summarizing "does this
     runtime stay near-best everywhere?". The paper's near-zero-overhead
     claim predicts PP(New RT) ~ PP(CUDA) >> PP(Old RT).

   Cycle counts are NOT comparable across machines (each machine prices
   against its own SM count and wavefront width); every derived column
   normalizes within a machine first. *)

module E = Ozo_harness.Experiments
module Proxy = Ozo_proxies.Proxy
module Machine = Ozo_backend.Machine
module Service = Ozo_serve.Service
module Trace = Ozo_obs.Trace

type cell = {
  x_proxy : string;
  x_build : string;       (* canonical build name *)
  x_machine : string;
  x_m : E.measurement;    (* the full measured row *)
}

type t = {
  mx_machines : string list;      (* column order *)
  mx_builds : string list;        (* row order per proxy *)
  mx_proxies : string list;
  mx_cells : cell list;           (* proxy-major, build, machine order *)
}

let default_machines = [ "vgpu"; "a100"; "v100"; "mi250"; "h100" ]

let machine_of_name n =
  match Machine.find n with
  | Some m -> m
  | None ->
    Service.fail "unknown machine %s (%s)" n (String.concat "|" Machine.names)

(* Run the full sweep through the drain: proxy x build x machine rows,
   each under [o] with its machine swapped in. The matrix sweeps its own
   machines, so [sv_machine] is not read, and it runs each cell once, so
   an [sv_repeat] other than 1 is refused rather than ignored. One
   compile cache serves the whole sweep; machine is part of the compile
   key, so per-machine compiles cache-separate automatically. *)
let run ?cache ?(trace = Trace.null) ?(machines = default_machines)
    ?(proxies = Ozo_proxies.Registry.names) (o : Service.opts) : t =
  if o.Service.sv_repeat <> 1 then
    Service.fail "the matrix runs each cell once (repeat %d)" o.Service.sv_repeat;
  let plan =
    List.concat_map
      (fun pname ->
        let p = Service.resolve_proxy o pname in
        List.concat_map
          (fun bname ->
            let b = Service.build_of_name p bname in
            List.map
              (fun mname ->
                let o = { o with Service.sv_machine = machine_of_name mname } in
                ((pname, bname, mname), (p, Service.request o ~trace p b)))
              machines)
          E.build_names)
      proxies
  in
  (* only the fields the matrix honours: [sv_machine] is pinned *)
  let fingerprint =
    "matrix;machines=" ^ String.concat "," machines ^ ";"
    ^ Service.campaign_fingerprint
        { o with Service.sv_machine = Service.default.Service.sv_machine } ~proxies
  in
  let rows, _ =
    Service.drain ?cache ~trace o ~fingerprint (fun () -> List.map snd plan)
  in
  { mx_machines = machines; mx_builds = E.build_names; mx_proxies = proxies;
    mx_cells =
      List.map2
        (fun ((x_proxy, x_build, x_machine), _) x_m ->
          { x_proxy; x_build; x_machine; x_m })
        plan rows }

let cell_ok (c : cell) =
  c.x_m.E.r_fault = None && c.x_m.E.r_check = Ok ()

let find_cell (t : t) ~proxy ~build ~machine =
  List.find_opt
    (fun c ->
      c.x_proxy = proxy && c.x_build = build && c.x_machine = machine)
    t.mx_cells

(* speedup over the Old RT (Nightly) baseline on the same machine *)
let rel_perf (t : t) (c : cell) : float option =
  match find_cell t ~proxy:c.x_proxy ~build:"old-rt" ~machine:c.x_machine with
  | Some base when cell_ok base && cell_ok c && c.x_m.E.r_cycles > 0.0 ->
    Some (base.x_m.E.r_cycles /. c.x_m.E.r_cycles)
  | _ -> None

(* cycles of the fastest valid build for (proxy, machine) *)
let best_cycles (t : t) ~proxy ~machine : float option =
  List.fold_left
    (fun acc c ->
      if c.x_proxy = proxy && c.x_machine = machine && cell_ok c then
        match acc with
        | None -> Some c.x_m.E.r_cycles
        | Some b -> Some (Float.min b c.x_m.E.r_cycles)
      else acc)
    None t.mx_cells

let app_efficiency (t : t) (c : cell) : float option =
  match best_cycles t ~proxy:c.x_proxy ~machine:c.x_machine with
  | Some best when cell_ok c && c.x_m.E.r_cycles > 0.0 ->
    Some (best /. c.x_m.E.r_cycles)
  | _ -> None

(* Pennycook harmonic mean over the machine set; 0.0 when the build
   failed (or has no valid baseline) on any machine *)
let pp_metric (t : t) ~proxy ~build : float =
  let effs =
    List.map
      (fun machine ->
        match find_cell t ~proxy ~build ~machine with
        | Some c -> app_efficiency t c
        | None -> None)
      t.mx_machines
  in
  if List.exists (fun e -> e = None || e = Some 0.0) effs then 0.0
  else
    let n = float_of_int (List.length effs) in
    n
    /. List.fold_left
         (fun acc e -> acc +. (1.0 /. Option.get e))
         0.0 effs

(* ---- reporting --------------------------------------------------------- *)

let csv_columns =
  [ "proxy"; "build"; "machine"; "cycles"; "rel_perf"; "app_eff"; "regs";
    "smem"; "occupancy"; "warp_insts"; "check" ]

let pp_csv_header ppf () = Fmt.pf ppf "%s@." (String.concat "," csv_columns)

let pp_csv ppf (t : t) =
  List.iter
    (fun c ->
      let opt = function Some v -> Printf.sprintf "%.3f" v | None -> "-" in
      Fmt.pf ppf "%s,%s,%s,%.0f,%s,%s,%d,%d,%.3f,%d,%s@." c.x_proxy c.x_build
        c.x_machine c.x_m.E.r_cycles
        (opt (rel_perf t c))
        (opt (app_efficiency t c))
        c.x_m.E.r_regs c.x_m.E.r_smem c.x_m.E.r_occupancy
        c.x_m.E.r_counters.Ozo_vgpu.Counters.warp_instructions
        (if cell_ok c then "ok" else "fail"))
    t.mx_cells

(* per-proxy table: builds x machines, relative performance + PP column *)
let pp_table ppf (t : t) =
  List.iter
    (fun proxy ->
      Fmt.pf ppf
        "@.%s — relative performance per machine (Old RT = 1.00) + PP@."
        proxy;
      Fmt.pf ppf "  %-24s" "build";
      List.iter (fun m -> Fmt.pf ppf " %8s" m) t.mx_machines;
      Fmt.pf ppf " %8s@." "PP";
      List.iter
        (fun build ->
          Fmt.pf ppf "  %-24s" build;
          List.iter
            (fun machine ->
              match find_cell t ~proxy ~build ~machine with
              | Some c -> (
                match rel_perf t c with
                | Some r -> Fmt.pf ppf " %7.2fx" r
                | None -> Fmt.pf ppf " %8s" "fail")
              | None -> Fmt.pf ppf " %8s" "-")
            t.mx_machines;
          Fmt.pf ppf " %8.2f@." (pp_metric t ~proxy ~build))
        t.mx_builds)
    t.mx_proxies
