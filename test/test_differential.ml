(* Differential testing: the indexed delivery buffer against the seed
   scanning Mailbox.

   Every protocol is compiled twice — [P] over [Delivery_buffer.Indexed]
   and [P.Scan] over the seed [Mailbox] — and both are driven through
   the full simulator on the same workload, network and seed. The two
   instantiations must be indistinguishable: identical histories (every
   read returns the same write), identical per-process apply sequences,
   identical delayed-apply sets, and identical buffer statistics.

   Seeds sweep three network regimes: heavy reordering (high-variance
   lognormal latency), lossy links (drops leave messages buffered
   forever on some replicas), and duplicating links (duplicates
   exercise the index's stuck-message parking). *)

module Spec = Dsm_workload.Spec
module Latency = Dsm_sim.Latency
module Network = Dsm_sim.Network
module Engine = Dsm_sim.Engine
module Sim_run = Dsm_runtime.Sim_run
module Execution = Dsm_runtime.Execution
module History = Dsm_memory.History
module Replication = Dsm_core.Replication
module Partial_run = Dsm_runtime.Partial_run

let params_of_seed seed =
  let rng = Dsm_sim.Rng.create (seed * 7919) in
  let n = 2 + Dsm_sim.Rng.int rng 5 in
  let ratio = 0.2 +. (0.1 *. float_of_int (Dsm_sim.Rng.int rng 8)) in
  let sigma = 0.2 *. float_of_int (Dsm_sim.Rng.int rng 11) in
  let faults =
    (* sweep the three regimes deterministically *)
    match seed mod 3 with
    | 0 -> Network.no_faults
    | 1 -> { Network.drop = 0.15; duplicate = 0.; corrupt = 0. }
    | _ -> { Network.drop = 0.; duplicate = 0.25; corrupt = 0. }
  in
  (n, ratio, sigma, faults)

let run_one (module P : Dsm_core.Protocol.S) ?(queue = Engine.Indexed)
    ?(arena = true) ?(batch = false) ?(observe = false) ~seed () =
  let n, ratio, sigma, faults = params_of_seed seed in
  let spec =
    Spec.make ~n ~m:4 ~ops_per_process:40 ~write_ratio:ratio
      ~think:(Latency.Exponential { mean = 5. })
      ~seed ()
  in
  let latency =
    Latency.Lognormal { mu = log 10. -. (sigma *. sigma /. 2.); sigma }
  in
  if observe then begin
    (* the full observability stack: live registry, wire accountant,
       flight recorder — all pure reads of the run *)
    let metrics = Dsm_obs.Metrics.create () in
    let wire = Dsm_obs.Wire.create ~proto:P.name ~n () in
    let recorder = Dsm_obs.Timeseries.create ~metrics () in
    Sim_run.run (module P) ~spec ~latency ~faults ~seed:(seed + 1) ~queue
      ~arena ~batch ~metrics ~wire ~recorder ()
  end
  else
    Sim_run.run (module P) ~spec ~latency ~faults ~seed:(seed + 1) ~queue
      ~arena ~batch ()

let same_outcome name seed (o1 : Sim_run.outcome) (o2 : Sim_run.outcome) =
  let ctx fmt = Printf.sprintf ("%s seed %d: " ^^ fmt) name seed in
  Alcotest.(check bool)
    (ctx "identical histories (reads and writes)")
    true
    (History.ops (Execution.to_history o1.Sim_run.execution)
    = History.ops (Execution.to_history o2.Sim_run.execution));
  let n = Execution.n_processes o1.Sim_run.execution in
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (ctx "identical apply sequence at p%d" (p + 1))
        true
        (Execution.apply_order o1.Sim_run.execution p
        = Execution.apply_order o2.Sim_run.execution p))
    (List.init n Fun.id);
  Alcotest.(check bool)
    (ctx "identical delayed-apply sets")
    true
    (Execution.delayed_applies o1.Sim_run.execution
    = Execution.delayed_applies o2.Sim_run.execution);
  Alcotest.(check (array int))
    (ctx "identical buffer high watermarks")
    o1.Sim_run.buffer_high_watermarks o2.Sim_run.buffer_high_watermarks;
  Alcotest.(check (array int))
    (ctx "identical total-buffered counts")
    o1.Sim_run.total_buffered o2.Sim_run.total_buffered;
  Alcotest.(check int)
    (ctx "identical skip counts")
    o1.Sim_run.skipped_writes o2.Sim_run.skipped_writes

let seeds count = List.init count (fun i -> i + 1)

(* the acceptance sweep: >= 100 seeds each for OptP and ANBKH *)
let test_optp () =
  List.iter
    (fun seed ->
      same_outcome "OptP" seed
        (run_one (module Dsm_core.Opt_p) ~seed ())
        (run_one (module Dsm_core.Opt_p.Scan) ~seed ()))
    (seeds 100)

let test_anbkh () =
  List.iter
    (fun seed ->
      same_outcome "ANBKH" seed
        (run_one (module Dsm_core.Anbkh) ~seed ())
        (run_one (module Dsm_core.Anbkh.Scan) ~seed ()))
    (seeds 100)

(* the writing-semantics variant exercises remove_all / to_list and the
   skip-path counter advances *)
let test_optp_ws () =
  List.iter
    (fun seed ->
      same_outcome "OptP-WS" seed
        (run_one (module Dsm_core.Opt_p_ws) ~seed ())
        (run_one (module Dsm_core.Opt_p_ws.Scan) ~seed ()))
    (seeds 40)

(* partial replication exercises the flattened matrix counter space *)
let test_partial () =
  List.iter
    (fun seed ->
      let n = 4 + (seed mod 3) and m = 6 in
      let replication = Replication.ring ~n ~m ~degree:2 in
      let spec =
        Spec.make ~n ~m ~ops_per_process:30 ~write_ratio:0.5
          ~think:(Latency.Exponential { mean = 5. })
          ~seed ()
      in
      let latency = Latency.Uniform { lo = 1.; hi = 120. } in
      let o1 =
        Partial_run.run ~replication ~spec ~latency ~seed:(seed + 1) ()
      in
      let o2 =
        Partial_run.run_scan ~replication ~spec ~latency ~seed:(seed + 1) ()
      in
      let ctx fmt =
        Printf.sprintf ("OptP-partial seed %d: " ^^ fmt) seed
      in
      Alcotest.(check bool)
        (ctx "identical histories") true
        (History.ops (Execution.to_history o1.Partial_run.execution)
        = History.ops (Execution.to_history o2.Partial_run.execution));
      List.iter
        (fun p ->
          Alcotest.(check bool)
            (ctx "identical apply sequence at p%d" (p + 1))
            true
            (Execution.apply_order o1.Partial_run.execution p
            = Execution.apply_order o2.Partial_run.execution p))
        (List.init n Fun.id);
      Alcotest.(check (array int))
        (ctx "identical buffer high watermarks")
        o1.Partial_run.buffer_high_watermarks
        o2.Partial_run.buffer_high_watermarks)
    (seeds 30)

(* Engine-machinery variants: the same 270-seed sweep must be
   insensitive to which event queue backs the engine (flat indexed heap
   vs the reference pairing heap) and to whether delivery envelopes go
   through the recycling arena or are freshly allocated. All four
   {queue} x {arena} configurations run the identical simulation —
   identical RNG draws, identical event order — so every observable in
   [same_outcome] must match the baseline bit for bit. *)

let engine_variants =
  [
    ("indexed*alloc", Engine.Indexed, false);
    ("heap*arena", Engine.Heap, true);
    ("heap*alloc", Engine.Heap, false);
  ]

let test_variants (module P : Dsm_core.Protocol.S) name count () =
  List.iter
    (fun seed ->
      let base = run_one (module P) ~seed () in
      List.iter
        (fun (vname, queue, arena) ->
          same_outcome
            (Printf.sprintf "%s[%s]" name vname)
            seed base
            (run_one (module P) ~queue ~arena ~seed ()))
        engine_variants)
    (seeds count)

let test_variants_partial () =
  List.iter
    (fun seed ->
      let n = 4 + (seed mod 3) and m = 6 in
      let replication = Replication.ring ~n ~m ~degree:2 in
      let spec =
        Spec.make ~n ~m ~ops_per_process:30 ~write_ratio:0.5
          ~think:(Latency.Exponential { mean = 5. })
          ~seed ()
      in
      let latency = Latency.Uniform { lo = 1.; hi = 120. } in
      let base =
        Partial_run.run ~replication ~spec ~latency ~seed:(seed + 1) ()
      in
      List.iter
        (fun (vname, queue, arena) ->
          let o =
            Partial_run.run ~replication ~spec ~latency ~seed:(seed + 1)
              ~queue ~arena ()
          in
          let ctx fmt =
            Printf.sprintf
              ("OptP-partial[%s] seed %d: " ^^ fmt)
              vname seed
          in
          Alcotest.(check bool)
            (ctx "identical histories") true
            (History.ops (Execution.to_history base.Partial_run.execution)
            = History.ops (Execution.to_history o.Partial_run.execution));
          Alcotest.(check int)
            (ctx "identical engine step counts")
            base.Partial_run.engine_steps o.Partial_run.engine_steps)
        engine_variants)
    (seeds 30)

(* Delivery batching coalesces same-edge deliveries behind one wakeup.
   It may permute same-instant deliveries across DISTINCT edges — a
   measure-zero event under the continuous latency laws used here — so
   on this sweep the batched run must reproduce the unbatched outcome
   exactly (engine step counts differ: wakeups replace per-envelope
   events; [same_outcome] compares semantics, not step counts). *)
let test_batched_parity (module P : Dsm_core.Protocol.S) name count () =
  List.iter
    (fun seed ->
      same_outcome
        (Printf.sprintf "%s[batched]" name)
        seed
        (run_one (module P) ~seed ())
        (run_one (module P) ~batch:true ~seed ()))
    (seeds count)

(* Observation parity: arming the wire accountant, the flight recorder
   and a live metrics registry must not move the run. The accountant
   prices frames without touching the RNG, and recorder scrapes are
   extra engine events whose callbacks only read the registry — so the
   same seed sweep as above must reproduce every semantic observable
   exactly (engine step counts legitimately differ: scrape ticks add
   events). *)

let test_observed (module P : Dsm_core.Protocol.S) name count () =
  List.iter
    (fun seed ->
      same_outcome
        (Printf.sprintf "%s[observed]" name)
        seed
        (run_one (module P) ~seed ())
        (run_one (module P) ~observe:true ~seed ()))
    (seeds count)

let test_observed_partial () =
  List.iter
    (fun seed ->
      let n = 4 + (seed mod 3) and m = 6 in
      let replication = Replication.ring ~n ~m ~degree:2 in
      let spec =
        Spec.make ~n ~m ~ops_per_process:30 ~write_ratio:0.5
          ~think:(Latency.Exponential { mean = 5. })
          ~seed ()
      in
      let latency = Latency.Uniform { lo = 1.; hi = 120. } in
      let base =
        Partial_run.run ~replication ~spec ~latency ~seed:(seed + 1) ()
      in
      let metrics = Dsm_obs.Metrics.create () in
      let wire = Dsm_obs.Wire.create ~proto:"OptP-partial" ~n () in
      let recorder = Dsm_obs.Timeseries.create ~metrics () in
      let o =
        Partial_run.run ~replication ~spec ~latency ~seed:(seed + 1)
          ~metrics ~wire ~recorder ()
      in
      let ctx fmt =
        Printf.sprintf ("OptP-partial[observed] seed %d: " ^^ fmt) seed
      in
      Alcotest.(check bool)
        (ctx "identical histories") true
        (History.ops (Execution.to_history base.Partial_run.execution)
        = History.ops (Execution.to_history o.Partial_run.execution));
      List.iter
        (fun p ->
          Alcotest.(check bool)
            (ctx "identical apply sequence at p%d" (p + 1))
            true
            (Execution.apply_order base.Partial_run.execution p
            = Execution.apply_order o.Partial_run.execution p))
        (List.init n Fun.id);
      Alcotest.(check (array int))
        (ctx "identical buffer high watermarks")
        base.Partial_run.buffer_high_watermarks
        o.Partial_run.buffer_high_watermarks;
      Alcotest.(check int)
        (ctx "identical message counts")
        base.Partial_run.messages_sent o.Partial_run.messages_sent)
    (seeds 30)

(* The churn campaign generalizes the fault campaign; on a churn-free
   plan it must be not just equivalent but byte-identical — same RNG
   consumption, same event scheduling, same wire traffic. Any drift
   here means dynamic membership changed static-membership behavior,
   which PR 2's pinned cram outputs (and physics) forbid. Plans sweep
   no-fault, crash/recover and crash+partition regimes; every crashed
   process recovers, so both harnesses report the same replica set. *)

module Fault_campaign = Dsm_runtime.Fault_campaign
module Churn_campaign = Dsm_runtime.Churn_campaign
module Fault_plan = Dsm_sim.Fault_plan

let test_churn_free_parity () =
  List.iter
    (fun seed ->
      let n = 3 + (seed mod 3) in
      let spec =
        Spec.make ~n ~m:3 ~ops_per_process:30 ~write_ratio:0.5
          ~think:(Latency.Exponential { mean = 10. })
          ~seed ()
      in
      let latency = Latency.Exponential { mean = 8. } in
      let faults =
        if seed mod 2 = 0 then Network.no_faults
        else { Network.drop = 0.1; duplicate = 0.05; corrupt = 0. }
      in
      let plan =
        match seed mod 3 with
        | 0 -> Fault_plan.make []
        | 1 ->
            Fault_plan.random
              (Dsm_sim.Rng.create (31 * seed))
              ~n ~horizon:300. ~crashes:1 ~partitions:0 ()
        | _ ->
            Fault_plan.random
              (Dsm_sim.Rng.create (31 * seed))
              ~n ~horizon:300. ~crashes:1 ~partitions:1 ()
      in
      let of_ =
        Fault_campaign.run
          (module Dsm_core.Opt_p)
          ~spec ~latency ~faults ~plan ~seed ()
      in
      let oc =
        Churn_campaign.run
          (module Dsm_core.Opt_p)
          ~spec ~latency ~faults ~plan ~initial:n ~seed ()
      in
      let ctx fmt =
        Printf.sprintf ("churn-free parity seed %d: " ^^ fmt) seed
      in
      Alcotest.(check bool)
        (ctx "identical event logs")
        true
        (Execution.events of_.Fault_campaign.execution
        = Execution.events oc.Churn_campaign.execution);
      Alcotest.(check bool)
        (ctx "identical histories")
        true
        (History.ops (Execution.to_history of_.Fault_campaign.execution)
        = History.ops oc.Churn_campaign.history);
      Alcotest.(check bool)
        (ctx "identical final replica states")
        true
        (of_.Fault_campaign.final_states = oc.Churn_campaign.final_states);
      Alcotest.(check int)
        (ctx "identical frame counts")
        of_.Fault_campaign.frames_sent oc.Churn_campaign.frames_sent;
      Alcotest.(check int)
        (ctx "identical retransmissions")
        of_.Fault_campaign.retransmissions oc.Churn_campaign.retransmissions;
      Alcotest.(check int)
        (ctx "identical engine step counts")
        of_.Fault_campaign.engine_steps oc.Churn_campaign.engine_steps;
      Alcotest.(check bool) (ctx "both clean") true
        (of_.Fault_campaign.clean && oc.Churn_campaign.clean))
    (seeds 12)

let () =
  Alcotest.run "differential"
    [
      ( "indexed buffer == seed mailbox",
        [
          Alcotest.test_case "OptP, 100 seeds" `Quick test_optp;
          Alcotest.test_case "ANBKH, 100 seeds" `Quick test_anbkh;
          Alcotest.test_case "OptP-WS, 40 seeds" `Quick test_optp_ws;
          Alcotest.test_case "OptP-partial, 30 seeds" `Quick test_partial;
        ] );
      ( "queue x arena variants",
        [
          Alcotest.test_case "OptP, 100 seeds x 3 variants" `Quick
            (test_variants (module Dsm_core.Opt_p) "OptP" 100);
          Alcotest.test_case "ANBKH, 100 seeds x 3 variants" `Quick
            (test_variants (module Dsm_core.Anbkh) "ANBKH" 100);
          Alcotest.test_case "OptP-WS, 40 seeds x 3 variants" `Quick
            (test_variants (module Dsm_core.Opt_p_ws) "OptP-WS" 40);
          Alcotest.test_case "OptP-partial, 30 seeds x 3 variants" `Quick
            test_variants_partial;
        ] );
      ( "delivery batching parity",
        [
          Alcotest.test_case "OptP, 100 seeds" `Quick
            (test_batched_parity (module Dsm_core.Opt_p) "OptP" 100);
          Alcotest.test_case "ANBKH, 100 seeds" `Quick
            (test_batched_parity (module Dsm_core.Anbkh) "ANBKH" 100);
        ] );
      ( "observation parity: wire + recorder + live metrics",
        [
          Alcotest.test_case "OptP, 100 seeds" `Quick
            (test_observed (module Dsm_core.Opt_p) "OptP" 100);
          Alcotest.test_case "ANBKH, 100 seeds" `Quick
            (test_observed (module Dsm_core.Anbkh) "ANBKH" 100);
          Alcotest.test_case "OptP-WS, 40 seeds" `Quick
            (test_observed (module Dsm_core.Opt_p_ws) "OptP-WS" 40);
          Alcotest.test_case "OptP-partial, 30 seeds" `Quick
            test_observed_partial;
        ] );
      ( "churn campaign == fault campaign on static membership",
        [
          Alcotest.test_case "OptP, 12 plans" `Quick test_churn_free_parity;
        ] );
    ]
