(* Tests for partially replicated causal memory: the Replication map,
   the Opt_p_partial protocol and the Partial_run driver with the
   replication-aware checker. *)

module Replication = Dsm_core.Replication
module P = Dsm_core.Opt_p_partial
module Partial_run = Dsm_runtime.Partial_run
module Checker = Dsm_runtime.Checker
module Execution = Dsm_runtime.Execution
module Spec = Dsm_workload.Spec
module Latency = Dsm_sim.Latency
module Dot = Dsm_vclock.Dot
module Operation = Dsm_memory.Operation

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let qcheck_case ?(count = 25) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen prop)

(* ------------------------------------------------------------------ *)
(* Replication maps                                                    *)
(* ------------------------------------------------------------------ *)

let test_full_map () =
  let r = Replication.full ~n:3 ~m:4 in
  check_bool "full" true (Replication.is_full r);
  check_int "degree" 3 (Replication.degree r ~var:2);
  Alcotest.(check (list int)) "vars" [ 0; 1; 2; 3 ]
    (Replication.vars_of r ~proc:1)

let test_ring_map () =
  let r = Replication.ring ~n:4 ~m:4 ~degree:2 in
  check_bool "not full" false (Replication.is_full r);
  Alcotest.(check (list int)) "x1 at p1,p2" [ 0; 1 ]
    (Replication.replicas_of r ~var:0);
  Alcotest.(check (list int)) "x4 wraps to p4,p1" [ 0; 3 ]
    (Replication.replicas_of r ~var:3);
  check_int "every var degree 2" 2 (Replication.degree r ~var:2)

let test_of_sets_validation () =
  Alcotest.check_raises "process with no vars"
    (Invalid_argument "Replication: process 1 replicates no variable")
    (fun () -> ignore (Replication.of_sets ~n:2 ~m:2 [| [ 0; 1 ]; [] |]));
  Alcotest.check_raises "unreplicated variable"
    (Invalid_argument "Replication: variable 1 has no replica") (fun () ->
      ignore (Replication.of_sets ~n:2 ~m:2 [| [ 0 ]; [ 0 ] |]))

let test_random_map_wellformed () =
  let rng = Dsm_sim.Rng.create 5 in
  let r = Replication.random ~n:5 ~m:7 ~degree:2 ~rng in
  for var = 0 to 6 do
    check_bool "every var replicated" true (Replication.degree r ~var >= 2)
  done;
  for proc = 0 to 4 do
    check_bool "every proc has a var" true
      (Replication.vars_of r ~proc <> [])
  done

(* ------------------------------------------------------------------ *)
(* Opt_p_partial unit behaviour                                        *)
(* ------------------------------------------------------------------ *)

(* p1{x1}, p2{x1,x2}, p3{x2}: causality flows p1 -> p2 -> p3 through
   x1 even though p3 does not replicate x1 *)
let chain_map () =
  Replication.of_sets ~n:3 ~m:2 [| [ 0 ]; [ 0; 1 ]; [ 1 ] |]

let test_partial_write_destinations () =
  let repl = chain_map () in
  let p1 = P.create repl ~me:0 in
  let _, _, dests, _ = P.write p1 ~var:0 ~value:1 in
  Alcotest.(check (list int)) "x1 goes to p2 only" [ 1 ] dests

let test_partial_rejects_foreign_ops () =
  let repl = chain_map () in
  let p1 = P.create repl ~me:0 in
  Alcotest.check_raises "write foreign var"
    (Invalid_argument "Opt_p_partial.write: p1 does not replicate x2")
    (fun () -> ignore (P.write p1 ~var:1 ~value:9));
  Alcotest.check_raises "read foreign var"
    (Invalid_argument "Opt_p_partial.read: p1 does not replicate x2")
    (fun () -> ignore (P.read p1 ~var:1))

(* transitive dependency through a location the receiver does not
   replicate: p2 reads x1=a then writes x2=b; p3 (x2 only) can apply b
   without ever seeing a *)
let test_partial_transitive_through_foreign_var () =
  let repl = chain_map () in
  let p1 = P.create repl ~me:0 in
  let p2 = P.create repl ~me:1 in
  let p3 = P.create repl ~me:2 in
  let _, ma, _, _ = P.write p1 ~var:0 ~value:1 in
  ignore (P.receive p2 ~src:0 ma);
  ignore (P.read p2 ~var:0);
  let _, mb, dests, _ = P.write p2 ~var:1 ~value:2 in
  Alcotest.(check (list int)) "x2 goes to p3 only" [ 2 ] dests;
  let applied = P.receive p3 ~src:1 mb in
  check_int "applied immediately (a is foreign to p3)" 1
    (List.length applied);
  check_bool "value visible" true
    (P.read p3 ~var:1 = (Operation.Val 2, Some mb.P.dot))

(* dependency on a REPLICATED location does block *)
let test_partial_replicated_dependency_blocks () =
  (* p3 replicates both x1 and x2 here *)
  let repl = Replication.of_sets ~n:3 ~m:2 [| [ 0 ]; [ 0; 1 ]; [ 0; 1 ] |] in
  let p1 = P.create repl ~me:0 in
  let p2 = P.create repl ~me:1 in
  let p3 = P.create repl ~me:2 in
  let _, ma, dests_a, _ = P.write p1 ~var:0 ~value:1 in
  Alcotest.(check (list int)) "x1 to p2 and p3" [ 1; 2 ] dests_a;
  ignore (P.receive p2 ~src:0 ma);
  ignore (P.read p2 ~var:0);
  let _, mb, _, _ = P.write p2 ~var:1 ~value:2 in
  (* b reaches p3 before a: must buffer *)
  let applied = P.receive p3 ~src:1 mb in
  check_int "buffered" 0 (List.length applied);
  check_int "one in buffer" 1 (P.buffered p3);
  let applied = P.receive p3 ~src:0 ma in
  check_int "a unblocks b" 2 (List.length applied)

(* merge-on-read at matrix level: applying without reading creates no
   dependency (the OptP property, one level up) *)
let test_partial_no_read_no_dependency () =
  let repl = Replication.of_sets ~n:3 ~m:2 [| [ 0 ]; [ 0; 1 ]; [ 0; 1 ] |] in
  let p1 = P.create repl ~me:0 in
  let p2 = P.create repl ~me:1 in
  let p3 = P.create repl ~me:2 in
  let _, ma, _, _ = P.write p1 ~var:0 ~value:1 in
  ignore (P.receive p2 ~src:0 ma);
  (* p2 applies a but does NOT read it *)
  let _, mb, _, _ = P.write p2 ~var:1 ~value:2 in
  let applied = P.receive p3 ~src:1 mb in
  check_int "b applies without a at p3" 1 (List.length applied)

(* ------------------------------------------------------------------ *)
(* Partial_run integration                                             *)
(* ------------------------------------------------------------------ *)

let run_ring ~degree ~seed =
  let n = 5 and m = 10 in
  let repl = Replication.ring ~n ~m ~degree in
  let spec =
    Spec.make ~n ~m ~ops_per_process:80 ~write_ratio:0.5
      ~think:(Latency.Exponential { mean = 5. })
      ~seed ()
  in
  Partial_run.run ~replication:repl ~spec
    ~latency:(Latency.Lognormal { mu = log 10. -. 0.5; sigma = 1.0 })
    ~seed ()

let test_partial_run_clean () =
  let o = run_ring ~degree:2 ~seed:11 in
  let r = Partial_run.check o in
  check_bool "clean" true (Checker.is_clean r);
  check_bool "complete (w.r.t. replication)" true r.Checker.complete;
  check_int "no unnecessary delays" 0 r.Checker.unnecessary_delays

let test_partial_run_saves_messages () =
  let o2 = run_ring ~degree:2 ~seed:12 in
  let o5 = run_ring ~degree:5 ~seed:12 in
  check_bool "fewer messages at lower degree" true
    (o2.Partial_run.messages_sent < o5.Partial_run.messages_sent)

let test_partial_ops_stay_local () =
  let o = run_ring ~degree:2 ~seed:13 in
  let repl = o.Partial_run.replication in
  List.iter
    (fun (e : Execution.event) ->
      match e.kind with
      | Execution.Return { var; _ } ->
          check_bool "reads only replicated vars" true
            (Replication.replicates repl ~proc:e.proc ~var)
      | Execution.Apply { var; _ } ->
          check_bool "applies only replicated vars" true
            (Replication.replicates repl ~proc:e.proc ~var)
      | _ -> ())
    (Execution.events o.Partial_run.execution)

let test_full_map_equivalent_to_checker_default () =
  (* under a full map the replication-aware audit agrees with the
     standard one *)
  let n = 4 and m = 4 in
  let repl = Replication.full ~n ~m in
  let spec = Spec.make ~n ~m ~ops_per_process:60 ~seed:21 () in
  let o =
    Partial_run.run ~replication:repl ~spec
      ~latency:(Latency.Exponential { mean = 10. })
      ~seed:2 ()
  in
  let r_partial = Partial_run.check o in
  let r_plain = Checker.check o.Partial_run.execution in
  check_bool "both clean" true
    (Checker.is_clean r_partial && Checker.is_clean r_plain);
  check_int "same delays" r_plain.Checker.total_delays
    r_partial.Checker.total_delays;
  check_int "same unnecessary" r_plain.Checker.unnecessary_delays
    r_partial.Checker.unnecessary_delays

let prop_random_replication_clean =
  qcheck_case ~count:15 "random replication maps: clean, complete, optimal"
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 1 4))
    (fun (seed, degree) ->
      let n = 4 and m = 6 in
      let rng = Dsm_sim.Rng.create seed in
      let repl = Replication.random ~n ~m ~degree ~rng in
      let spec =
        Spec.make ~n ~m ~ops_per_process:50 ~write_ratio:0.5 ~seed ()
      in
      let o =
        Partial_run.run ~replication:repl ~spec
          ~latency:(Latency.Lognormal { mu = 2.0; sigma = 1.2 })
          ~seed:(seed + 1) ()
      in
      let r = Partial_run.check o in
      Checker.is_clean r && r.Checker.complete
      && r.Checker.unnecessary_delays = 0)


let prop_partial_session_guarantees =
  qcheck_case ~count:10 "partial runs satisfy all session guarantees"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let o = run_ring ~degree:2 ~seed in
      Dsm_memory.Session_guarantees.all_hold
        (Dsm_memory.Causal_order.compute
           (Execution.to_history o.Partial_run.execution)))

let () =
  Alcotest.run "partial_replication"
    [
      ( "replication_map",
        [
          Alcotest.test_case "full" `Quick test_full_map;
          Alcotest.test_case "ring" `Quick test_ring_map;
          Alcotest.test_case "of_sets validation" `Quick
            test_of_sets_validation;
          Alcotest.test_case "random well-formed" `Quick
            test_random_map_wellformed;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "multicast destinations" `Quick
            test_partial_write_destinations;
          Alcotest.test_case "foreign ops rejected" `Quick
            test_partial_rejects_foreign_ops;
          Alcotest.test_case "transitive dep through foreign var" `Quick
            test_partial_transitive_through_foreign_var;
          Alcotest.test_case "replicated dep blocks" `Quick
            test_partial_replicated_dependency_blocks;
          Alcotest.test_case "no read, no dependency" `Quick
            test_partial_no_read_no_dependency;
        ] );
      ( "runs",
        [
          Alcotest.test_case "audited clean" `Quick test_partial_run_clean;
          Alcotest.test_case "message savings" `Quick
            test_partial_run_saves_messages;
          Alcotest.test_case "ops stay local" `Quick
            test_partial_ops_stay_local;
          Alcotest.test_case "full map = plain checker" `Quick
            test_full_map_equivalent_to_checker_default;
          prop_random_replication_clean;
          prop_partial_session_guarantees;
        ] );
    ]
