(* The dense-index auditor against the test-side reference.

   [Checker.check] and [Reference_checker.check] (the scan-based form
   the dense index replaced) must return structurally equal reports —
   every count, every delay with its blocking list, every violation
   string, every missing and lost pair, all in the same order — or
   raise the same exception. The cases cover each audit mode: full
   replication over every protocol (ANBKH for unnecessary delays, the
   canary for safety violations, the writing-semantics variants for
   skips, lossy links for lost writes), partial replication
   ([?replication]), the nemesis corpus and a mini swarm
   ([?expected]), soak windows ([?floor]), and hand-built executions
   for the corner cases no protocol produces. *)

module Checker = Dsm_runtime.Checker
module Execution = Dsm_runtime.Execution
module Sim_run = Dsm_runtime.Sim_run
module Reliable_run = Dsm_runtime.Reliable_run
module Partial_run = Dsm_runtime.Partial_run
module Nemesis = Dsm_runtime.Nemesis
module Churn_campaign = Dsm_runtime.Churn_campaign
module Fault_campaign = Dsm_runtime.Fault_campaign
module Soak = Dsm_runtime.Soak
module PS = Dsm_runtime.Paper_scenarios
module Replication = Dsm_core.Replication
module Spec = Dsm_workload.Spec
module Latency = Dsm_sim.Latency
module Network = Dsm_sim.Network
module Sim_time = Dsm_sim.Sim_time
module Dot = Dsm_vclock.Dot
module Operation = Dsm_memory.Operation

let outcome f = match f () with r -> Ok r | exception e -> Error (Printexc.to_string e)

let pp_outcome ppf = function
  | Ok r -> Checker.pp_report ppf r
  | Error e -> Format.fprintf ppf "raised %s" e

(* both auditors on one execution; returns the dense one's report *)
let agree ctx ?replication ?expected ?floor e =
  let dense = outcome (fun () -> Checker.check ?replication ?expected ?floor e) in
  let reference =
    outcome (fun () ->
        Reference_checker.check ?replication ?expected ?floor e)
  in
  if dense <> reference then
    Alcotest.failf "%s: reports differ@.dense:     %a@.reference: %a" ctx
      pp_outcome dense pp_outcome reference;
  dense

let agree_report ctx ?replication ?expected ?floor e =
  match agree ctx ?replication ?expected ?floor e with
  | Ok r -> r
  | Error msg -> Alcotest.failf "%s: both auditors raised %s" ctx msg

(* ------------------------------------------------------------------ *)
(* Full replication: the differential sweep, every protocol            *)
(* ------------------------------------------------------------------ *)

let protocols : (string * (module Dsm_core.Protocol.S)) list =
  [
    ("OptP", (module Dsm_core.Opt_p));
    ("ANBKH", (module Dsm_core.Anbkh));
    ("WS-recv", (module Dsm_core.Ws_receiver));
    ("OptP-WS", (module Dsm_core.Opt_p_ws));
    ("WS-token", (module Dsm_core.Ws_token));
    ("OptP-direct", (module Dsm_core.Opt_p_direct));
    ("canary", (module Dsm_core.Canary));
  ]

(* the differential suite's regimes: heavy reordering, lossy links,
   duplicating links *)
let sim_run p ~seed =
  let rng = Dsm_sim.Rng.create (seed * 7919) in
  let n = 2 + Dsm_sim.Rng.int rng 5 in
  let ratio = 0.2 +. (0.1 *. float_of_int (Dsm_sim.Rng.int rng 8)) in
  let sigma = 0.2 *. float_of_int (Dsm_sim.Rng.int rng 11) in
  let faults =
    match seed mod 3 with
    | 0 -> Network.no_faults
    | 1 -> { Network.drop = 0.15; duplicate = 0.; corrupt = 0. }
    | _ -> { Network.drop = 0.; duplicate = 0.25; corrupt = 0. }
  in
  let spec =
    Spec.make ~n ~m:4 ~ops_per_process:40 ~write_ratio:ratio
      ~think:(Latency.Exponential { mean = 5. })
      ~seed ()
  in
  let latency =
    Latency.Lognormal { mu = log 10. -. (sigma *. sigma /. 2.); sigma }
  in
  Sim_run.run p ~spec ~latency ~faults ~seed:(seed + 1) ()

let test_protocol name p () =
  let seen = ref (0, 0, 0, 0) in
  for seed = 1 to 30 do
    let r =
      agree_report
        (Printf.sprintf "%s seed %d" name seed)
        (sim_run p ~seed).Sim_run.execution
    in
    let d, u, v, l = !seen in
    seen :=
      ( d + r.Checker.total_delays,
        u + r.Checker.unnecessary_delays,
        v + List.length r.Checker.violations,
        l + List.length r.Checker.lost )
  done;
  (* the sweep must reach the paths it claims to compare *)
  let d, u, v, l = !seen in
  Alcotest.(check bool) (name ^ ": delays classified") true (d > 0);
  Alcotest.(check bool) (name ^ ": lossy seeds lose writes") true (l > 0);
  if name = "ANBKH" then
    Alcotest.(check bool) "ANBKH: unnecessary delays" true (u > 0);
  if name = "canary" then
    Alcotest.(check bool) "canary: safety violations" true (v > 0)

let test_reliable () =
  for seed = 1 to 10 do
    let spec =
      Spec.make ~n:5 ~m:3 ~ops_per_process:40 ~write_ratio:0.5 ~seed ()
    in
    let o =
      Reliable_run.run
        (module Dsm_core.Opt_p)
        ~spec ~latency:(Latency.Uniform { lo = 1.; hi = 60. })
        ~faults:{ Network.drop = 0.1; duplicate = 0.1; corrupt = 0. }
        ~seed ()
    in
    ignore
      (agree (Printf.sprintf "reliable seed %d" seed) o.Reliable_run.execution)
  done

let test_paper_figures () =
  List.iter
    (fun (name, p) ->
      List.iter
        (fun (s : PS.t) ->
          ignore
            (agree
               (Printf.sprintf "%s on %s" name s.PS.label)
               (PS.run p s).Dsm_runtime.Scripted_run.execution))
        PS.all)
    protocols

(* ------------------------------------------------------------------ *)
(* Partial replication                                                 *)
(* ------------------------------------------------------------------ *)

let test_partial () =
  let delays = ref 0 in
  for seed = 1 to 20 do
    let n = 4 + (seed mod 3) and m = 6 in
    let replication = Replication.ring ~n ~m ~degree:2 in
    let spec =
      Spec.make ~n ~m ~ops_per_process:30 ~write_ratio:0.5
        ~think:(Latency.Exponential { mean = 5. })
        ~seed ()
    in
    let o =
      Partial_run.run ~replication ~spec
        ~latency:(Latency.Uniform { lo = 1.; hi = 120. })
        ~seed:(seed + 1) ()
    in
    let r =
      agree_report
        (Printf.sprintf "partial seed %d" seed)
        ~replication:(fun ~proc ~var -> Replication.replicates replication ~proc ~var)
        o.Partial_run.execution
    in
    Alcotest.(check bool) "Partial_run.check is the dense audit" true
      (Partial_run.check o = r);
    delays := !delays + r.Checker.total_delays
  done;
  Alcotest.(check bool) "partial runs delay" true (!delays > 0)

(* ------------------------------------------------------------------ *)
(* Membership-aware completeness: nemesis corpus and swarm             *)
(* ------------------------------------------------------------------ *)

(* the campaign audits with the live replicas at the end as [?expected] *)
let agree_campaign ctx (o : Churn_campaign.outcome) =
  let live =
    List.map (fun (s : Fault_campaign.replica_state) -> s.sproc) o.final_states
  in
  let r =
    agree_report ctx
      ~expected:(fun ~proc ~dot:_ -> List.mem proc live)
      o.Churn_campaign.execution
  in
  Alcotest.(check bool) (ctx ^ ": the campaign's own report") true
    (r = o.Churn_campaign.report)

let test_corpus () =
  List.iter
    (fun (s : Nemesis.scenario) ->
      match (Nemesis.run s.sched_).outcome with
      | Some o -> agree_campaign s.sched_.name o
      | None -> ())
    Nemesis.scenarios

let test_swarm () =
  let rep =
    Nemesis.swarm ~seed:1 ~count:12
      ~on_result:(fun i (res : Nemesis.result) ->
        Option.iter (agree_campaign (Printf.sprintf "swarm %d" i)) res.outcome)
      ()
  in
  Alcotest.(check int) "swarm ran" 12 rep.Nemesis.total

(* ------------------------------------------------------------------ *)
(* Windowed audits: soak                                               *)
(* ------------------------------------------------------------------ *)

let test_soak (module P : Dsm_core.Protocol.S) strict () =
  let windows = ref 0 in
  let audit ~expected ~floor e =
    incr windows;
    agree_report (Printf.sprintf "window %d" !windows) ~expected ~floor e
  in
  let cfg =
    {
      Soak.default with
      Soak.epochs = 60;
      window = 10;
      seed = 1;
      strict_delays = strict;
    }
  in
  let o = Soak.run ~audit (module P) cfg in
  Alcotest.(check int) "every window audited" 6 !windows;
  Alcotest.(check bool) "slots were reused" true (o.Soak.adoptions > 0)

(* ------------------------------------------------------------------ *)
(* Hand-built executions                                               *)
(* ------------------------------------------------------------------ *)

let dot r s = Dot.make ~replica:r ~seq:s
let t f = Sim_time.of_float f

let apply ?(delayed = false) e ~proc ~at d var =
  Execution.record e ~proc ~time:(t at)
    (Execution.Apply { dot = d; var; value = Dot.seq d + (10 * Dot.replica d); delayed })

let receipt e ~proc ~at d =
  Execution.record e ~proc ~time:(t at)
    (Execution.Receipt { dot = d; src = Dot.replica d })

let read e ~proc ~at var from =
  let value =
    match from with
    | None -> Operation.Bot
    | Some d -> Operation.Val (Dot.seq d + (10 * Dot.replica d))
  in
  Execution.record e ~proc ~time:(t at)
    (Execution.Return { var; value; read_from = from })

(* a receipt and a skip of dots that were never written, around a
   delayed apply whose blocking set the skip already covers *)
let test_never_written () =
  let e = Execution.create ~n:2 ~m:2 () in
  apply e ~proc:0 ~at:0. (dot 0 1) 0;
  apply e ~proc:0 ~at:1. (dot 0 2) 1;
  receipt e ~proc:1 ~at:2. (dot 0 9);
  receipt e ~proc:1 ~at:2. (dot 1 4);
  Execution.record e ~proc:1 ~time:(t 3.) (Execution.Skip { dot = dot 0 5 });
  receipt e ~proc:1 ~at:4. (dot 0 2);
  apply ~delayed:true e ~proc:1 ~at:5. (dot 0 2) 1;
  let r = agree_report "never-written dots" e in
  Alcotest.(check int) "one delay" 1 r.Checker.total_delays;
  Alcotest.(check int) "the skip covered it: unnecessary" 1
    r.Checker.unnecessary_delays;
  Alcotest.(check int) "w1#1 lost at p2" 1 (List.length r.Checker.lost)

let test_bot_read_after_write () =
  let e = Execution.create ~n:2 ~m:2 () in
  apply e ~proc:1 ~at:0. (dot 1 1) 0;
  apply e ~proc:1 ~at:0.5 (dot 1 2) 0;
  apply e ~proc:1 ~at:1. (dot 1 3) 1;
  apply e ~proc:0 ~at:2. (dot 0 1) 0;
  apply e ~proc:0 ~at:3. (dot 1 1) 0;
  apply e ~proc:0 ~at:3.5 (dot 1 2) 0;
  apply e ~proc:0 ~at:4. (dot 1 3) 1;
  read e ~proc:0 ~at:5. 1 (Some (dot 1 3));
  read e ~proc:0 ~at:6. 0 None;
  let r = agree_report "⊥ read" e in
  Alcotest.(check (list string))
    "every preceding write on x1, latest issuer first, latest write first"
    [
      "LEGALITY at p1: read of x1 returned ⊥ although w2#2 causally \
       precedes it";
      "LEGALITY at p1: read of x1 returned ⊥ although w2#1 causally \
       precedes it";
      "LEGALITY at p1: read of x1 returned ⊥ although w1#1 causally \
       precedes it";
    ]
    (List.map (Format.asprintf "%a" Checker.pp_violation) r.Checker.violations)

(* partial replication: p2 holds x1 only. It applies p1's second write
   on x1 before the first (a safety violation) and never p1's write on
   x2, which it does not replicate; it applies w1#1 a second time after
   receiving w1#3 again *)
let test_partial_hand_built () =
  let e = Execution.create ~n:2 ~m:2 () in
  apply e ~proc:0 ~at:0. (dot 0 1) 0;
  apply e ~proc:0 ~at:1. (dot 0 2) 1;
  apply e ~proc:0 ~at:2. (dot 0 3) 0;
  receipt e ~proc:1 ~at:3. (dot 0 3);
  apply e ~proc:1 ~at:4. (dot 0 3) 0;
  receipt e ~proc:1 ~at:5. (dot 0 1);
  apply e ~proc:1 ~at:6. (dot 0 1) 0;
  receipt e ~proc:1 ~at:7. (dot 0 3);
  apply e ~proc:1 ~at:7.5 (dot 0 1) 0;
  apply ~delayed:true e ~proc:1 ~at:8. (dot 0 3) 0;
  let replication ~proc ~var = proc = 0 || var = 0 in
  let r = agree_report "partial hand-built" ~replication e in
  Alcotest.(check int) "w1#1 missing at the first w1#3" 1
    (List.length r.Checker.violations);
  Alcotest.(check int) "the second w1#3 waited for w1#1's second apply" 1
    r.Checker.necessary_delays

let test_stale_two_issuers () =
  let e = Execution.create ~n:3 ~m:1 () in
  apply e ~proc:0 ~at:0. (dot 0 1) 0;
  apply e ~proc:1 ~at:1. (dot 0 1) 0;
  read e ~proc:1 ~at:2. 0 (Some (dot 0 1));
  apply e ~proc:1 ~at:3. (dot 1 1) 0;
  apply e ~proc:1 ~at:4. (dot 1 2) 0;
  apply e ~proc:2 ~at:5. (dot 0 1) 0;
  apply e ~proc:2 ~at:6. (dot 1 1) 0;
  apply e ~proc:2 ~at:7. (dot 1 2) 0;
  read e ~proc:2 ~at:8. 0 (Some (dot 1 2));
  apply e ~proc:2 ~at:9. (dot 2 1) 0;
  apply e ~proc:2 ~at:10. (dot 2 2) 0;
  read e ~proc:2 ~at:11. 0 (Some (dot 0 1));
  let r = agree_report "stale read" e in
  Alcotest.(check (list string))
    "interposed, latest issuer first, latest write first"
    [
      "LEGALITY at p3: read of x1 from w1#1 is stale: w3#2 is causally \
       interposed";
      "LEGALITY at p3: read of x1 from w1#1 is stale: w3#1 is causally \
       interposed";
      "LEGALITY at p3: read of x1 from w1#1 is stale: w2#2 is causally \
       interposed";
      "LEGALITY at p3: read of x1 from w1#1 is stale: w2#1 is causally \
       interposed";
    ]
    (List.map (Format.asprintf "%a" Checker.pp_violation) r.Checker.violations)

let test_delayed_without_receipt () =
  let e = Execution.create ~n:2 ~m:1 () in
  apply e ~proc:0 ~at:0. (dot 0 1) 0;
  apply e ~proc:0 ~at:1. (dot 0 2) 0;
  apply ~delayed:true e ~proc:1 ~at:2. (dot 0 1) 0;
  receipt e ~proc:1 ~at:3. (dot 0 2);
  apply ~delayed:true e ~proc:1 ~at:3. (dot 0 2) 0;
  let r = agree_report "delayed without receipt" e in
  Alcotest.(check int) "two accounting violations" 2
    (List.length r.Checker.violations);
  Alcotest.(check int) "only the received one is a delay" 1
    r.Checker.total_delays

(* a ring-bounded log: the global trace drops events that the
   per-process traces still hold, and the totals are the global trace's *)
let test_ring_bounded () =
  let e = Execution.create ~capacity_limit:4 ~n:2 ~m:1 () in
  for s = 1 to 3 do
    apply e ~proc:0 ~at:(float_of_int s) (dot 0 s) 0;
    apply e ~proc:1 ~at:(float_of_int s +. 0.5) (dot 0 s) 0
  done;
  let r = agree_report "ring-bounded log" e in
  Alcotest.(check int) "applies retained globally" 4 r.Checker.total_applies

(* an apply of a write that is not in the history: both raise *)
let test_unknown_apply () =
  let e = Execution.create ~n:2 ~m:1 () in
  apply e ~proc:0 ~at:0. (dot 0 1) 0;
  apply e ~proc:1 ~at:1. (dot 0 3) 0;
  match agree "unknown apply" e with
  | Ok _ -> Alcotest.fail "expected Not_found"
  | Error _ -> ()

let () =
  Alcotest.run "checker"
    [
      ( "full replication",
        List.map
          (fun (name, p) ->
            Alcotest.test_case (name ^ ", 30 seeds") `Quick (test_protocol name p))
          protocols
        @ [
            Alcotest.test_case "reliable channel, 10 seeds" `Quick test_reliable;
            Alcotest.test_case "paper figures" `Quick test_paper_figures;
          ] );
      ( "partial replication",
        [ Alcotest.test_case "OptP-partial, 20 seeds" `Quick test_partial ] );
      ( "membership",
        [
          Alcotest.test_case "nemesis corpus" `Quick test_corpus;
          Alcotest.test_case "mini swarm" `Quick test_swarm;
        ] );
      ( "windows",
        [
          Alcotest.test_case "OptP soak" `Quick
            (test_soak (module Dsm_core.Opt_p) true);
          Alcotest.test_case "ANBKH soak" `Quick
            (test_soak (module Dsm_core.Anbkh) false);
        ] );
      ( "hand-built",
        [
          Alcotest.test_case "never-written receipt and skip" `Quick
            test_never_written;
          Alcotest.test_case "⊥ read after a write" `Quick
            test_bot_read_after_write;
          Alcotest.test_case "stale read, two issuers" `Quick
            test_stale_two_issuers;
          Alcotest.test_case "partial replication" `Quick
            test_partial_hand_built;
          Alcotest.test_case "delayed without receipt" `Quick
            test_delayed_without_receipt;
          Alcotest.test_case "ring-bounded log" `Quick test_ring_bounded;
          Alcotest.test_case "apply of an unknown write" `Quick
            test_unknown_apply;
        ] );
    ]
