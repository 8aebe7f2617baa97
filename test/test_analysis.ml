(* Analysis manager: caching semantics, invalidation precision, and the
   differential stale-cache check.

   The heart of the suite is the differential test: every pipeline
   configuration over real proxies runs with [check_invalidation] on, so
   after *every pass* each cached analysis is compared against a fresh
   recomputation ([Analysis.check_coherent]). A wrong preserved-analyses
   declaration or a missed invalidation fails loudly here. The
   cached-vs-uncached test then pins the stronger end-to-end property:
   the optimized IR is bit-identical with caching on and off. *)

open Ozo_ir.Types
open Util
module Analysis = Ozo_opt.Analysis
module Pipeline = Ozo_opt.Pipeline
module B = Ozo_ir.Builder
module C = Ozo_core.Codesign
module Proxy = Ozo_proxies.Proxy
module Registry = Ozo_proxies.Registry

(* a small two-block function module for the unit tests *)
let diamond_module () =
  kernel_module ~name:"diam" ~params:[ I64 ] (fun b ps ->
      let p = List.nth ps 0 in
      let c = B.icmp b Sgt p (B.i64 0) in
      B.cond_br b c "then" "else";
      B.set_block b "then";
      B.br b "join";
      B.set_block b "else";
      B.br b "join";
      B.set_block b "join";
      B.ret b None)

let func_of m = List.hd m.m_funcs

let test_hit_miss () =
  let m = diamond_module () in
  let f = func_of m in
  let am = Analysis.create () in
  ignore (Analysis.cfg am f);
  ignore (Analysis.cfg am f);
  ignore (Analysis.dominators am f);
  ignore (Analysis.dominators am f);
  ignore (Analysis.liveness am f);
  ignore (Analysis.pressure am f);
  let st = Analysis.stats am in
  (* cfg: miss+hit, dom: miss+hit, live: miss, pressure: miss (live cached) *)
  Alcotest.(check int) "hits" 2 st.Analysis.st_hits;
  Alcotest.(check int) "misses" 4 st.Analysis.st_misses;
  ignore (Analysis.pressure am f);
  Alcotest.(check int) "pressure now hits" 3 (Analysis.stats am).Analysis.st_hits

let test_uncached_manager () =
  let m = diamond_module () in
  let f = func_of m in
  let am = Analysis.create ~caching:false () in
  ignore (Analysis.cfg am f);
  ignore (Analysis.cfg am f);
  let st = Analysis.stats am in
  Alcotest.(check int) "no hits without caching" 0 st.Analysis.st_hits;
  Alcotest.(check int) "every query misses" 2 st.Analysis.st_misses

(* same shape, different block contents: the shape-derived analyses are
   served from cache, but the refreshed CFG must expose the *new* blocks
   and content-derived analyses must be recomputed *)
let test_blocks_refresh () =
  let m = diamond_module () in
  let f = func_of m in
  let am = Analysis.create () in
  let cfg0 = Analysis.cfg am f in
  ignore (Analysis.liveness am f);
  (* append pure arithmetic to the join block: contents change, shape not *)
  let f' =
    { f with
      f_blocks =
        List.map
          (fun b ->
            if b.b_label <> "join" then b
            else
              { b with
                b_insts =
                  b.b_insts
                  @ [ Binop (f.f_next_reg, Add, Imm_int (1L, I64), Imm_int (2L, I64)) ] })
          f.f_blocks;
      f_next_reg = f.f_next_reg + 1 }
  in
  let inv0 = (Analysis.stats am).Analysis.st_invalidations in
  let cfg1 = Analysis.cfg am f' in
  Alcotest.(check int) "same-shape revalidation is not an invalidation" inv0
    (Analysis.stats am).Analysis.st_invalidations;
  Alcotest.(check (list string)) "rpo preserved" cfg0.Ozo_ir.Cfg.rpo cfg1.Ozo_ir.Cfg.rpo;
  let join = Ozo_ir.Cfg.block cfg1 "join" in
  Alcotest.(check int) "refreshed CFG serves the new block body" 1
    (List.length join.b_insts);
  (match Analysis.check_coherent am m with
  | Ok () -> ()
  | Error e -> Alcotest.failf "coherence after refresh: %s" e);
  ()

let test_shape_invalidation () =
  let m = diamond_module () in
  let f = func_of m in
  let am = Analysis.create () in
  ignore (Analysis.dominators am f);
  (* drop the else-edge: the shape changes, everything must recompute *)
  let f' =
    { f with
      f_blocks =
        List.map
          (fun b -> if b.b_label = "entry" then { b with b_term = Br "then" } else b)
          f.f_blocks }
  in
  let inv0 = (Analysis.stats am).Analysis.st_invalidations in
  let d = Analysis.dominators am f' in
  Alcotest.(check bool) "shape change counted as invalidation" true
    ((Analysis.stats am).Analysis.st_invalidations > inv0);
  Alcotest.(check (option string)) "idom of then is entry" (Some "entry")
    (Option.join (Ozo_ir.Cfg.SMap.find_opt "then" d.Ozo_ir.Dominance.idom))

let test_callgraph_invalidation () =
  let m = diamond_module () in
  let am = Analysis.create () in
  ignore (Analysis.callgraph am m);
  ignore (Analysis.callgraph am m);
  Alcotest.(check int) "second query hits" 1 (Analysis.stats am).Analysis.st_hits;
  (* a changing pass that does not preserve calls drops the call graph;
     untouched functions keep their entries *)
  Analysis.invalidate am
    ~preserved:{ Analysis.pr_cfg = true; pr_live = true; pr_calls = false }
    ~before:m ~after:m;
  ignore (Analysis.callgraph am m);
  Alcotest.(check int) "rebuilt after invalidation" 2
    (Analysis.stats am).Analysis.st_misses

(* physical-identity diff: only touched functions lose their entries *)
let test_precise_invalidation () =
  let m = diamond_module () in
  let f = func_of m in
  let am = Analysis.create () in
  ignore (Analysis.cfg am f);
  (* a "pass" that rebuilds the module record but returns the function
     records untouched must invalidate nothing *)
  let m' = { m with m_globals = m.m_globals } in
  Analysis.invalidate am ~preserved:Analysis.preserve_none ~before:m ~after:m';
  ignore (Analysis.cfg am f);
  Alcotest.(check int) "identical funcs keep their caches" 1
    (Analysis.stats am).Analysis.st_hits;
  (* now with a structurally-equal but physically-new function record and
     a preserve-nothing declaration: the entry must go *)
  let m'' = { m with m_funcs = List.map (fun f -> { f with f_name = f.f_name }) m.m_funcs } in
  Analysis.invalidate am ~preserved:Analysis.preserve_none ~before:m ~after:m'';
  ignore (Analysis.cfg am (func_of m''));
  Alcotest.(check int) "touched func recomputes" 2
    (Analysis.stats am).Analysis.st_misses

(* ---------- differential invalidation over real proxies ----------------- *)

let linked_module (p : Proxy.t) (b : C.build) =
  let k = Proxy.kernel_for p b.C.b_abi in
  let app = Ozo_frontend.Lower.lower ~abi:b.C.b_abi k in
  match b.C.b_rt with
  | None -> app
  | Some rt -> Ozo_ir.Linker.link app (Ozo_runtime.Runtime.build rt)

let small_proxy name =
  match Registry.find ~small:true name with
  | Some p -> p
  | None -> Alcotest.failf "no small proxy %s" name

let configs = [ Pipeline.o0; Pipeline.baseline; Pipeline.nightly; Pipeline.full ]

(* every pass of every config on two proxies, with after-every-pass
   coherence checking and IR verification *)
let test_differential () =
  List.iter
    (fun pname ->
      let p = small_proxy pname in
      let b = Ozo_harness.Experiments.new_rt_for p in
      let linked = linked_module p b in
      List.iter
        (fun cfg ->
          let opts =
            { Pipeline.default_opts with
              Pipeline.verify_each_step = true; check_invalidation = true }
          in
          ignore (Pipeline.run ~opts cfg linked))
        configs)
    [ "xsbench"; "minifmm" ]

let pp_ir m = Fmt.str "%a" Ozo_ir.Printer.pp_module m

(* optimized IR must be bit-identical with caching on and off; the
   uncached manager keeps no clean marks either, so this is also the
   differential test of the function-local passes' clean memo *)
let test_cached_vs_uncached () =
  List.iter
    (fun p ->
      List.iter
        (fun (b : C.build) ->
          let linked = linked_module p b in
          List.iter
            (fun cfg ->
              let cached = Pipeline.run cfg linked in
              let uncached =
                Pipeline.run
                  ~opts:{ Pipeline.default_opts with Pipeline.caching = false }
                  cfg linked
              in
              if pp_ir cached <> pp_ir uncached then
                Alcotest.failf "%s/%s/%s: cached and uncached IR differ"
                  p.Proxy.p_name b.C.b_label cfg.Pipeline.name)
            configs)
        (Ozo_harness.Experiments.builds_for p))
    (Registry.all_small ())

(* ---------- clean memo ---------------------------------------------------- *)

(* run [pass] with one manager until it reports no change; the final
   unchanged run leaves every function marked clean *)
let rec to_fixpoint am pass m =
  let m', ch = pass am m in
  if ch then to_fixpoint am pass m' else m'

let local_opt am m = Ozo_opt.Local_opt.run ~am m
let cse am m = Ozo_opt.Cse.run ~am m

let test_memo_skips_clean () =
  let p = small_proxy "xsbench" in
  let linked = linked_module p (Ozo_harness.Experiments.new_rt_for p) in
  List.iter
    (fun (name, pass) ->
      let am = Analysis.create () in
      let m = to_fixpoint am pass linked in
      let skips0 = (Analysis.stats am).Analysis.st_clean_skips in
      let m', ch = pass am m in
      Alcotest.(check bool) (name ^ ": rerun reports no change") false ch;
      Alcotest.(check bool) (name ^ ": rerun returns the module itself") true (m' == m);
      Alcotest.(check int)
        (name ^ ": every function skipped")
        (List.length m.m_funcs)
        ((Analysis.stats am).Analysis.st_clean_skips - skips0))
    [ ("local_opt", local_opt); ("cse", cse) ]

(* [f] calls [g] and drops the result; [g] stores (impure) or not *)
let purity_module ~g_pure =
  let b = B.create "purity" in
  ignore (B.add_global b ~space:Global ~size:8 ~init:Zero_init "cell");
  ignore (B.begin_func b ~name:"g" ~params:[] ~ret:(Some I64) ());
  B.set_block b "entry";
  if not g_pure then B.store b I64 (B.i64 1) (Global_addr "cell");
  B.ret b (Some (B.i64 7));
  ignore (B.end_func b);
  ignore
    (B.begin_func b ~name:"f" ~kernel:true ~linkage:External ~params:[] ~ret:None ());
  B.set_block b "entry";
  ignore (B.call b ~ret:I64 "g" []);
  B.ret b None;
  ignore (B.end_func b);
  B.finish b

let test_memo_purity_change () =
  let calls_in name m =
    count_in_func is_call (Option.get (find_func m name))
  in
  let am = Analysis.create () in
  let impure = purity_module ~g_pure:false in
  let m1 = to_fixpoint am local_opt impure in
  Alcotest.(check int) "call to an impure g survives" 1 (calls_in "f" m1);
  (* g becomes pure; f is the very record the memo marked clean *)
  let g' = Option.get (find_func (purity_module ~g_pure:true) "g") in
  let m2 =
    { m1 with
      m_funcs = List.map (fun f -> if f.f_name = "g" then g' else f) m1.m_funcs }
  in
  let m3, ch = local_opt am m2 in
  Alcotest.(check bool) "purity change re-simplifies the caller" true ch;
  Alcotest.(check int) "dead call to a now-pure g removed" 0 (calls_in "f" m3);
  (* and back: g impure again drops the marks recorded under the pure set *)
  let m4 = to_fixpoint am local_opt m3 in
  let skips0 = (Analysis.stats am).Analysis.st_clean_skips in
  let g_impure = Option.get (find_func impure "g") in
  let m5 =
    { m4 with
      m_funcs = List.map (fun f -> if f.f_name = "g" then g_impure else f) m4.m_funcs }
  in
  ignore (local_opt am m5);
  Alcotest.(check int) "no function skipped under a changed purity set" skips0
    (Analysis.stats am).Analysis.st_clean_skips

(* ---------- inline name supply -------------------------------------------- *)

(* New RT (Nightly) keeps inlined continuation blocks in the final IR *)
let xsbench_ir () =
  let p = small_proxy "xsbench" in
  let b = C.new_rt_nightly in
  pp_ir (C.compile b (Proxy.kernel_for p b.C.b_abi)).C.c_module

(* one compile's IR is a function of the compile alone: the same bytes
   first, after 20 other compiles, and on 4 domains at once *)
let test_name_supply_deterministic () =
  let first = xsbench_ir () in
  Alcotest.(check bool) "inlined clones present" true (contains first ".cont");
  let others = List.filteri (fun i _ -> i < 20)
      (List.concat_map
         (fun p -> List.map (fun b -> (p, b)) (Ozo_harness.Experiments.builds_for p))
         (Registry.all_small ()))
  in
  Alcotest.(check int) "20 other compiles" 20 (List.length others);
  List.iter
    (fun (p, (b : C.build)) -> ignore (C.compile b (Proxy.kernel_for p b.C.b_abi)))
    others;
  Alcotest.(check string) "after 20 other compiles" first (xsbench_ir ());
  let out = Array.make 4 "" in
  Ozo_util.Pool.run ~workers:4 (fun w -> out.(w) <- xsbench_ir ());
  Array.iteri
    (fun w ir -> Alcotest.(check string) (Printf.sprintf "domain %d of 4" w) first ir)
    out

(* re-optimizing optimized IR: new clone labels start past the old ones *)
let test_name_supply_seeded () =
  let p = small_proxy "xsbench" in
  let b = Ozo_harness.Experiments.new_rt_for p in
  let optimized = Pipeline.run b.C.b_pipe (linked_module p b) in
  let top = Analysis.max_site_suffix optimized in
  Alcotest.(check bool) "optimized IR carries site suffixes" true (top > 0);
  let am = Analysis.create () in
  Alcotest.(check int) "first fresh site is past them" (top + 1)
    (Analysis.fresh_site am optimized);
  Alcotest.(check int) "then counts up" (top + 2) (Analysis.fresh_site am optimized);
  let opts = { Pipeline.default_opts with Pipeline.verify_each_step = true } in
  ignore (Pipeline.run ~opts Pipeline.full optimized)

let test_full_pipeline_hit_rate () =
  let p = small_proxy "xsbench" in
  let b = Ozo_harness.Experiments.new_rt_for p in
  let linked = linked_module p b in
  let am = Analysis.create () in
  ignore (Pipeline.run ~am Pipeline.full linked);
  let st = Analysis.stats am in
  Alcotest.(check bool) "full pipeline produces cache hits" true
    (st.Analysis.st_hits > 0);
  Alcotest.(check bool) "and a majority hit rate" true (Analysis.hit_rate st > 50.0)

let suite =
  [ tc "analysis: hit/miss accounting" test_hit_miss;
    tc "analysis: caching off always misses" test_uncached_manager;
    tc "analysis: same-shape refresh keeps shape analyses" test_blocks_refresh;
    tc "analysis: shape change recomputes" test_shape_invalidation;
    tc "analysis: callgraph contract invalidation" test_callgraph_invalidation;
    tc "analysis: physical-identity diff is precise" test_precise_invalidation;
    tc "differential: every pass x config x proxy stays coherent" test_differential;
    tc "pipeline: cached and uncached IR bit-identical" test_cached_vs_uncached;
    tc "clean memo: rerun at fixpoint skips every function" test_memo_skips_clean;
    tc "clean memo: purity change re-simplifies callers" test_memo_purity_change;
    tc "name supply: same IR first, after others, on 4 domains" test_name_supply_deterministic;
    tc "name supply: seeded past existing suffixes" test_name_supply_seeded;
    tc "pipeline: full config has a nonzero hit rate" test_full_pipeline_hit_rate ]
