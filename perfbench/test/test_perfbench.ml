(* The benchmark's own checks, at a size a unit test can afford. *)

module W = Perfbench.Workload
module M = Perfbench.Measure

let small name = W.small (Option.get (W.find name))

let stats (module P : Dsm_core.Protocol.S) w =
  W.stats (module P) w (W.inputs w ~seed:1)

(* The correctness gate can fail: the causally broken canary protocol
   must show up as failed operations. *)
let canary_fails () =
  let w = small "steady-n32" in
  let r = M.end_to_end (module Dsm_core.Canary) w ~seed:1 ~seconds:0.001 in
  Alcotest.(check bool) "failed ops" true (r.failed > 0);
  Alcotest.(check bool) "not correct" false r.correct

let opt_p_passes () =
  let r = M.end_to_end (module Dsm_core.Opt_p) (small "steady-n32") ~seed:1 ~seconds:0.001 in
  Alcotest.(check int) "failed ops" 0 r.failed;
  Alcotest.(check bool) "correct" true r.correct

(* Simulated statistics per workload; a change that only touches host
   cost must leave these strings alone. *)
let pinned =
  [
    ( "steady-n32",
      "ops=144 msgs=360 steps=518 events=992 delays=56 necessary=56 failed=0 \
       wire_bytes=34560 visibility=360/8.3259136909837927/57.954612493934796 \
       verdicts=" );
    ( "wide-n128",
      "ops=144 msgs=155 steps=313 events=493 delays=8 necessary=8 failed=0 \
       wire_bytes=14880 visibility=155/7.7432334178375584/62.928632983678149 \
       verdicts=" );
    ( "lossy-n16",
      "ops=144 msgs=907 steps=1471 events=1035 delays=99 necessary=99 failed=0 \
       wire_bytes=70648 visibility=360/13.115544026861137/329.84528026554881 \
       verdicts=" );
    ( "swarm",
      "ops=1251 msgs=9855 steps=16479 events=6952 delays=692 necessary=692 failed=0 \
       wire_bytes=736828 visibility=2214/12.424867370048474/147.95591667353781 \
       verdicts=clean:6" );
  ]

let fingerprint name () =
  Alcotest.(check string) name (List.assoc name pinned)
    (W.fingerprint (stats (module Dsm_core.Opt_p) (small name)))

(* The timing wrapper observes without changing a run. *)
let wrapper_transparent () =
  let module T = Perfbench.Timed.Make (Dsm_core.Opt_p) in
  List.iter
    (fun name ->
      let w = small name in
      Alcotest.(check string) name
        (W.fingerprint (stats (module Dsm_core.Opt_p) w))
        (W.fingerprint (stats (module T) w)))
    [ "steady-n32"; "swarm" ]

(* The benchmark's copy of [Nemesis.run] judges like the original. *)
let campaign_matches_nemesis () =
  List.iter
    (fun seed ->
      let sched = Dsm_runtime.Nemesis.random_schedule ~seed () in
      let verdict, _ = W.campaign (module Dsm_core.Opt_p) sched in
      Alcotest.(check string) sched.name
        (Dsm_runtime.Nemesis.verdict_name (Dsm_runtime.Nemesis.run sched).verdict)
        (Dsm_runtime.Nemesis.verdict_name verdict))
    (List.init 6 (fun i -> 1000 + i))

let () =
  Alcotest.run "perfbench"
    [
      ( "gate",
        [
          Alcotest.test_case "canary fails" `Quick canary_fails;
          Alcotest.test_case "optp passes" `Quick opt_p_passes;
        ] );
      ( "fingerprint",
        List.map
          (fun (name, _) -> Alcotest.test_case name `Quick (fingerprint name))
          pinned );
      ( "harness",
        [
          Alcotest.test_case "wrapper transparent" `Quick wrapper_transparent;
          Alcotest.test_case "campaign matches nemesis" `Quick
            campaign_matches_nemesis;
        ] );
    ]
