(* Timing loops, the layer ledger and the result line.

   Two passes, never mixed in one process. The untraced pass times whole
   audited runs (simulate + [Checker.check]) and reports the end-to-end
   metrics. The traced pass times calls into each layer from the
   outside: the protocol through the [Timed] wrapper handed to the
   driver, the checker's stages called one by one, and the engine,
   network, channel and execution log by replaying the traced run's own
   events through them. Its residual against the traced run's total is
   reported as [unattributed]. *)

module Protocol = Dsm_core.Protocol
module Opt_p = Dsm_core.Opt_p
module Engine = Dsm_sim.Engine
module Network = Dsm_sim.Network
module Reliable_channel = Dsm_sim.Reliable_channel
module Sim_time = Dsm_sim.Sim_time
module Rng = Dsm_sim.Rng
module Execution = Dsm_runtime.Execution
module Checker = Dsm_runtime.Checker
module Nemesis = Dsm_runtime.Nemesis
module Churn_campaign = Dsm_runtime.Churn_campaign
module W = Workload

let now_ns = Timed.now_ns
let minor_words = Timed.minor_words
let fi = float_of_int

(* ------------------------------------------------------------------ *)
(* Sample statistics                                                   *)
(* ------------------------------------------------------------------ *)

let sorted l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

let percentile l q = W.quantile (sorted l) q
let median l = percentile l 0.5

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

let say fmt = Printf.printf (fmt ^^ "\n%!")

(* Prints a per-run metric as its median, quartiles and sample count. *)
let summarize name unit_ samples =
  let a = sorted samples in
  say "  %-36s %14.6g %-6s  q1 %.6g  q3 %.6g  n=%d" name (W.quantile a 0.5)
    unit_ (W.quantile a 0.25) (W.quantile a 0.75) (Array.length a);
  { name; value = W.quantile a 0.5; unit_ }

let single name unit_ value =
  say "  %-36s %14.6g %-6s  (one value per run)" name value unit_;
  { name; value; unit_ }

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let to_json r =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
              (json_number m.value) m.unit_)
          r.metrics))

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

let warm_schedules = 8

(* Builds the inputs and runs one audited warm-up, so that lazy
   initialisation and heap growth are paid before timing starts. *)
let setup (module P : Protocol.S) w ~seed =
  Gc.compact ();
  let t0 = now_ns () in
  let inputs = W.inputs w ~seed in
  (match (w.W.kind, inputs) with
  | W.Sim s, W.Spec spec :: _ ->
      let o = W.simulate (module P) s ~probes:(W.probes_of s) spec in
      ignore (Checker.check o.execution)
  | W.Swarm _, [ W.Schedules scheds ] ->
      Array.iteri
        (fun i sched -> if i < warm_schedules then ignore (Nemesis.run sched))
        scheds
  | _ -> assert false);
  (inputs, fi (now_ns () - t0) /. 1e9)

let setups = 5

let set_up (module P : Protocol.S) w ~seed =
  let first_inputs, first = setup (module P) w ~seed in
  let rest = List.init (setups - 1) (fun _ -> snd (setup (module P) w ~seed)) in
  (first_inputs, first :: rest)

(* The major heap's high-water mark so far. Every timed run starts from
   a compacted heap, so this is the largest single audited run's peak,
   not garbage piled up across runs. *)
let peak_heap_mb () =
  fi (Gc.quick_stat ()).top_heap_words *. fi (Sys.word_size / 8) /. 1048576.

let swarm_seed ~seed = W.sub_seed ~seed 0

(* ------------------------------------------------------------------ *)
(* Untraced pass: the end-to-end metrics                               *)
(* ------------------------------------------------------------------ *)

type round = {
  ns : int;
  words : int;
  ops : int;
  attempted : int;  (** ops, or schedules on [swarm] *)
  failed : int;
  runs_ms : float list;  (** one audited run (or schedule) each *)
}

let min_rounds = 3

let rounds ~seconds f =
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let rec go acc k =
    if k >= min_rounds && now_ns () >= deadline then List.rev acc
    else go (f () :: acc) (k + 1)
  in
  go [] 0

(* Audited simulation runs, one per input. *)
let sim_round (module P : Protocol.S) s specs =
  let ns = ref 0 and words = ref 0 and ops = ref 0 and failed = ref 0 in
  let runs_ms =
    List.map
      (fun spec ->
        Gc.compact ();
        let w0 = minor_words () in
        let t0 = now_ns () in
        let o = W.simulate (module P) s ~probes:(W.probes_of s) spec in
        let r = Checker.check o.execution in
        let dt = now_ns () - t0 in
        words := !words + (minor_words () - w0);
        ns := !ns + dt;
        ops := !ops + W.ops_of o.execution;
        failed := !failed + W.failures r;
        fi dt /. 1e6)
      specs
  in
  { ns = !ns; words = !words; ops = !ops; attempted = !ops; failed = !failed; runs_ms }

(* One [Nemesis.swarm]; a schedule's time runs from the previous
   schedule's verdict to its own. *)
let swarm_round ~seed ~schedules =
  let stamps = Array.make schedules 0 in
  Gc.compact ();
  let w0 = minor_words () in
  let t0 = now_ns () in
  let rep =
    Nemesis.swarm ~seed:(swarm_seed ~seed) ~count:schedules
      ~on_result:(fun i _ -> stamps.(i) <- now_ns ())
      ()
  in
  let ns = now_ns () - t0 in
  let words = minor_words () - w0 in
  {
    ns;
    words;
    ops = 0 (* from the instrumented pass *);
    attempted = rep.total;
    failed = rep.total - rep.accepted_count;
    runs_ms =
      List.init schedules (fun i ->
          fi (stamps.(i) - if i = 0 then t0 else stamps.(i - 1)) /. 1e6);
  }

let specs_of inputs =
  List.map (function W.Spec s -> s | W.Schedules _ -> assert false) inputs

let schedules_of = function
  | [ W.Schedules a ] -> a
  | _ -> invalid_arg "schedules_of"

(* [P] drives the simulation workloads, so a test can swap in a broken
   protocol and watch the gate fail; swarm schedules name their protocol
   themselves. *)
let end_to_end (module P : Protocol.S) w ~seed ~seconds =
  let inputs, setup_times = set_up (module P) w ~seed in
  let timed =
    match w.W.kind with
    | W.Sim s ->
        let specs = specs_of inputs in
        rounds ~seconds (fun () -> sim_round (module P) s specs)
    | W.Swarm { schedules } -> rounds ~seconds (fun () -> swarm_round ~seed ~schedules)
  in
  let heap_mb = peak_heap_mb () in
  (* Simulated statistics, from one instrumented pass over the same
     inputs. Probes are pure observation, so it must see the very runs
     that were timed. *)
  let st = W.stats (module P) w inputs in
  let timed =
    match w.W.kind with
    | W.Swarm _ -> List.map (fun r -> { r with ops = st.s_ops }) timed
    | W.Sim _ -> timed
  in
  let sum f = List.fold_left (fun a r -> a + f r) 0 timed in
  let attempted = sum (fun r -> r.attempted) and failed = sum (fun r -> r.failed) in
  let consistent =
    List.for_all (fun r -> r.ops = st.s_ops && r.failed = st.s_failed) timed
  in
  say "workload %s seed %d: %d timed rounds of %d ops" w.W.name seed
    (List.length timed) st.s_ops;
  say "fingerprint %s" (W.fingerprint st);
  let v = W.sorted_visibility st in
  let per_op r = fi r.ns /. fi r.ops in
  (* thunks, so that the report prints in this order *)
  let metrics =
    List.map
      (fun f -> f ())
      [
        (fun () -> summarize "audited_ns_per_op" "ns" (List.map per_op timed));
        (fun () ->
          summarize "minor_words_per_op" "words"
            (List.map (fun r -> fi r.words /. fi r.ops) timed));
        (fun () -> single "peak_heap_mb" "MB" heap_mb);
        (fun () ->
          summarize "swarm_schedules_per_s" "1/s"
            (List.map
               (fun r -> fi (List.length r.runs_ms) /. (fi r.ns /. 1e9))
               timed));
        (fun () ->
          single "schedule_ms_p90" "ms"
            (percentile (List.concat_map (fun r -> r.runs_ms) timed) 0.9));
        (fun () -> single "visibility_p50_u" "u" (W.quantile v 0.5));
        (fun () ->
          single "delays_per_apply" "ratio"
            (fi st.s_delays /. fi (W.remote_applies st)));
        (fun () ->
          single "wire_bytes_per_op" "B/op" (fi st.s_wire_bytes /. fi st.s_ops));
        (fun () -> summarize "setup_s" "s" setup_times);
      ]
  in
  (* reported, not gated: see README.md *)
  say "  %-36s %14.6g %-6s  (one value per run; not gated)" "visibility_p99_u"
    (W.quantile v 0.99) "u";
  say "  %-36s %14.6g %-6s  (%d failed of %d attempted)" "failed_op_ratio"
    (fi failed /. fi attempted) "ratio" failed attempted;
  { correct = failed = 0 && consistent; attempted; failed; metrics }

(* ------------------------------------------------------------------ *)
(* Replays: one layer fed the traced run's own traffic                 *)
(* ------------------------------------------------------------------ *)

type shape = {
  n : int;
  m : int;
  latency : Dsm_sim.Latency.t;
  faults : Network.faults;
  events : Execution.event array;
  sends : (int * Sim_time.t) array;  (** issuer and time of each write *)
  issues : (Sim_time.t * Sim_time.t array) array;
      (** each op's issue time, with the receipt times of its write *)
}

let shape ~n ~m ~latency ~faults execution =
  let events = Array.of_list (Execution.events execution) in
  let pick f = Array.of_list (List.filter_map f (Array.to_list events)) in
  let receipts = Hashtbl.create 1024 in
  Array.iter
    (fun (e : Execution.event) ->
      match e.kind with
      | Receipt { dot; _ } -> Hashtbl.add receipts dot e.time
      | _ -> ())
    events;
  {
    n;
    m;
    latency;
    faults;
    events;
    sends =
      pick (fun (e : Execution.event) ->
          match e.kind with Send _ -> Some (e.proc, e.time) | _ -> None);
    issues =
      pick (fun (e : Execution.event) ->
          match e.kind with
          | Return _ -> Some (e.time, [||])
          | Apply { dot; _ } when Dsm_vclock.Dot.replica dot = e.proc ->
              Some (e.time, Array.of_list (Hashtbl.find_all receipts dot))
          | _ -> None);
  }

let replay_execution sh () =
  let e = Execution.create ~n:sh.n ~m:sh.m () in
  Array.iter
    (fun (ev : Execution.event) ->
      Execution.record e ~proc:ev.proc ~time:ev.time ev.kind)
    sh.events

(* The engine alone: a no-op event at each op's issue time that, like a
   send, schedules no-op events at its write's receipt times, so the
   queue holds what it held in the run. *)
let replay_engine sh () =
  let engine = Engine.create () in
  Array.iter
    (fun (t, receipts) ->
      Engine.schedule_at engine t (fun () ->
          Array.iter (fun r -> Engine.schedule_at engine r ignore) receipts))
    sh.issues;
  ignore (Engine.run engine);
  Engine.steps_executed engine

let latency_of sh ~src:_ ~dst:_ = sh.latency

(* The run's broadcasts through a perfect network with null handlers. *)
let replay_network sh ~seed () =
  let engine = Engine.create () in
  let network =
    Network.create ~engine ~rng:(Rng.create seed) ~n:sh.n
      ~latency:(latency_of sh) ()
  in
  for p = 0 to sh.n - 1 do
    Network.set_handler network p (fun ~src:_ ~at:_ () -> ())
  done;
  Array.iter
    (fun (p, t) ->
      Engine.schedule_at engine t (fun () -> Network.broadcast network ~src:p ()))
    sh.sends;
  ignore (Engine.run engine);
  (Network.messages_sent network, Engine.steps_executed engine)

(* The same broadcasts through the reliable channel, over links with
   the workload's faults. *)
let replay_channel sh ~seed () =
  let engine = Engine.create () in
  let network =
    Network.create ~engine ~rng:(Rng.create seed) ~n:sh.n
      ~latency:(latency_of sh) ~faults:sh.faults
      ~mangle:Reliable_channel.corrupt_frame ()
  in
  let chan = Reliable_channel.create ~engine ~network () in
  for p = 0 to sh.n - 1 do
    Reliable_channel.set_handler chan p (fun ~src:_ ~at:_ () -> ())
  done;
  Array.iter
    (fun (p, t) ->
      Engine.schedule_at engine t (fun () ->
          Reliable_channel.broadcast chan ~src:p ()))
    sh.sends;
  ignore (Engine.run engine);
  ( {
      W.payloads = Reliable_channel.payloads_sent chan;
      frames = Network.messages_sent network;
      retransmissions = Reliable_channel.retransmissions chan;
      duplicates_discarded = Reliable_channel.duplicates_discarded chan;
    },
    Engine.steps_executed engine )

(* ------------------------------------------------------------------ *)
(* Traced pass: the per-layer metrics and the ledger                   *)
(* ------------------------------------------------------------------ *)

(* Per-round sums, by name. *)
let add acc k v =
  Hashtbl.replace acc k (v +. Option.value ~default:0. (Hashtbl.find_opt acc k))

let addi acc k v = add acc k (fi v)
let get acc k = Option.value ~default:0. (Hashtbl.find_opt acc k)

(* Host nanoseconds and minor words of [f ()], added under [k]. *)
let time acc k f =
  let w0 = minor_words () in
  let t0 = now_ns () in
  let x = f () in
  let dt = now_ns () - t0 in
  addi acc (k ^ "_words") (minor_words () - w0);
  addi acc (k ^ "_ns") dt;
  x

module T = Timed.Make (Opt_p)

let record_protocol acc (s : Timed.stats) =
  addi acc "writes" s.writes;
  addi acc "write_ns" s.write_ns;
  addi acc "reads" s.reads;
  addi acc "read_ns" s.read_ns;
  addi acc "receives" s.receives;
  addi acc "receive_ns" s.receive_ns;
  addi acc "receive_words" s.receive_words;
  addi acc "wakeup_scans" s.wakeup_scans;
  addi acc "delayed" s.delayed;
  addi acc "snapshots" s.snapshots;
  addi acc "snapshot_ns" s.snapshot_ns;
  addi acc "restores" s.restores;
  addi acc "restore_ns" s.restore_ns

let record_channel acc (c : W.channel) =
  addi acc "payloads" c.payloads;
  addi acc "frames" c.frames;
  addi acc "retransmissions" c.retransmissions;
  addi acc "duplicates" c.duplicates_discarded

(* Everything measured on one recorded execution, after its run. *)
let layers acc ~spec ~sh execution =
  let h = time acc "to_history" (fun () -> Execution.to_history execution) in
  ignore (time acc "write_vectors" (fun () -> Dsm_memory.Write_vectors.compute h));
  ignore (time acc "generate" (fun () -> Dsm_workload.Generator.generate spec));
  time acc "exec_replay" (replay_execution sh);
  addi acc "replay_steps" (time acc "engine_replay" (replay_engine sh));
  let sends, steps =
    time acc "net_replay" (replay_network sh ~seed:spec.Dsm_workload.Spec.seed)
  in
  addi acc "net_sends" sends;
  addi acc "net_steps" steps;
  let c, steps =
    time acc "chan_replay" (replay_channel sh ~seed:spec.Dsm_workload.Spec.seed)
  in
  addi acc "chan_frames" c.frames;
  addi acc "chan_net_steps" steps;
  c

(* A traced or re-probed run that is not the run it shadows. *)
let expect acc b = if not b then addi acc "inconsistent" 1

let sim_traced_round (s : W.sim) specs ~sample =
  let acc = Hashtbl.create 64 in
  List.iter
    (fun spec ->
      (* the workload as users run it *)
      let o_u =
        time acc "untraced_run" (fun () ->
            W.simulate (module Opt_p) s ~probes:(W.probes_of s) spec)
      in
      let r_u = time acc "untraced_check" (fun () -> Checker.check o_u.execution) in
      (* the same run with the protocol timed *)
      T.reset ();
      let o = time acc "run" (fun () -> W.simulate (module T) s ~probes:(W.probes_of s) spec) in
      let r = time acc "check" (fun () -> Checker.check o.execution) in
      let ops = W.ops_of o.execution in
      addi acc "attempted" ops;
      addi acc "failed" (W.failures r + W.failures r_u);
      expect acc
        (o.msgs = o_u.msgs && o.steps = o_u.steps
        && Execution.event_count o.execution = Execution.event_count o_u.execution);
      addi acc "ops" ops;
      addi acc "msgs" o.msgs;
      addi acc "steps" o.steps;
      addi acc "events" (Execution.event_count o.execution);
      (* durable images of the final replica states *)
      let cfg = Protocol.config ~n:s.n ~m:s.m in
      List.iter
        (fun t -> ignore (T.restore cfg ~me:(T.me t) (T.snapshot t)))
        (T.states ());
      record_protocol acc (T.stats ());
      let sh =
        shape ~n:s.n ~m:s.m ~latency:W.latency
          ~faults:(if s.lossy then W.lossy_faults else Network.no_faults)
          o.execution
      in
      let replayed = layers acc ~spec ~sh o.execution in
      record_channel acc (Option.value o.channel ~default:replayed);
      (* the probe stack the workload does not run with *)
      ignore
        (time acc "other_probes" (fun () ->
             let probes = if s.lossy then W.null_probes () else W.full_probes ~n:s.n in
             Checker.check (W.simulate (module Opt_p) s ~probes spec).execution));
      (* the campaign layer, which this workload bypasses: a few nemesis
         schedules of the same seed *)
      ignore
        (time acc "campaign" (fun () ->
             Array.iter (fun sched -> ignore (Nemesis.run sched)) sample));
      addi acc "schedules" (Array.length sample);
      ())
    specs;
  let total_untraced = get acc "untraced_run_ns" +. get acc "untraced_check_ns" in
  let other = get acc "other_probes_ns" in
  add acc "probes_delta_ns"
    (if s.lossy then total_untraced -. other else other -. total_untraced);
  if s.lossy then add acc "probes_self_ns" (get acc "probes_delta_ns");
  add acc "protocol_self_ns"
    (get acc "write_ns" +. get acc "read_ns" +. get acc "receive_ns");
  add acc "traced_ns" (get acc "run_ns" +. get acc "check_ns");
  add acc "checker_self_ns" (get acc "check_ns" +. get acc "to_history_ns");
  add acc "channel_used" (if s.lossy then 1. else 0.);
  acc

let swarm_traced_round scheds =
  let acc = Hashtbl.create 64 in
  Array.iter
    (fun (sched : Nemesis.schedule) ->
      let u = time acc "untraced_run" (fun () -> Nemesis.run sched) in
      ignore
        (time acc "other_probes" (fun () ->
             Nemesis.run ~metrics:(Dsm_obs.Metrics.create ()) sched));
      T.reset ();
      let verdict, o = time acc "run" (fun () -> W.campaign (module T) sched) in
      addi acc "attempted" 1;
      if not (Nemesis.accepted u.verdict) then addi acc "failed" 1;
      expect acc (verdict = u.verdict);
      addi acc "schedules" 1;
      record_protocol acc (T.stats ());
      Option.iter
        (fun (o : Churn_campaign.outcome) ->
          ignore (time acc "check" (fun () -> Checker.check o.execution));
          addi acc "ops" (W.ops_of o.execution);
          addi acc "msgs" o.frames_sent;
          addi acc "steps" o.engine_steps;
          addi acc "events" (Execution.event_count o.execution);
          record_channel acc
            {
              W.payloads = o.payloads_sent;
              frames = o.frames_sent;
              retransmissions = o.retransmissions;
              duplicates_discarded = o.duplicates_discarded;
            };
          let sh =
            shape ~n:sched.universe ~m:sched.vars ~latency:sched.latency
              ~faults:(Option.value sched.faults ~default:Network.no_faults)
              o.execution
          in
          ignore (layers acc ~spec:(W.schedule_spec sched) ~sh o.execution))
        o)
    scheds;
  add acc "campaign_ns" (get acc "untraced_run_ns");
  add acc "probes_delta_ns" (get acc "other_probes_ns" -. get acc "untraced_run_ns");
  add acc "protocol_self_ns"
    (get acc "write_ns" +. get acc "read_ns" +. get acc "receive_ns"
    +. get acc "snapshot_ns" +. get acc "restore_ns");
  (* the campaign audits inside the run *)
  add acc "traced_ns" (get acc "run_ns");
  add acc "checker_self_ns" (get acc "check_ns" +. get acc "to_history_ns");
  add acc "channel_used" 1.;
  acc

let ratio acc a b = get acc a /. get acc b

(* Host nanoseconds per layer inside the traced run, measured from the
   outside; [unattributed] is what is left of the run's total. *)
let ledger acc =
  let engine_ns = ratio acc "engine_replay_ns" "replay_steps" in
  let net_self =
    (get acc "net_replay_ns" -. (get acc "net_steps" *. engine_ns))
    /. get acc "net_sends"
  in
  let chan_self =
    (get acc "chan_replay_ns"
    -. (get acc "chan_net_steps" *. engine_ns)
    -. (get acc "chan_frames" *. net_self))
    /. get acc "chan_frames"
  in
  let used = get acc "channel_used" = 1. in
  let rows =
    [
      ("generator", get acc "generate_ns");
      ("engine", get acc "steps" *. engine_ns);
      ("network", get acc "msgs" *. net_self);
      ("channel", if used then get acc "frames" *. chan_self else 0.);
      ("protocol", get acc "protocol_self_ns");
      ("execution", get acc "exec_replay_ns");
      ("checker", get acc "checker_self_ns");
      ("probes", get acc "probes_self_ns");
    ]
  in
  let attributed = List.fold_left (fun a (_, v) -> a +. v) 0. rows in
  rows @ [ ("unattributed", get acc "traced_ns" -. attributed) ]

let layer_metrics acc =
  let per_msg k = ratio acc k "msgs" and per_op k = ratio acc k "ops" in
  let unattributed = List.assoc "unattributed" (ledger acc) in
  let untraced = get acc "untraced_run_ns" +. get acc "untraced_check_ns" in
  [
    ("protocol.receive_ns", "ns", ratio acc "receive_ns" "receives");
    ("protocol.write_ns", "ns", ratio acc "write_ns" "writes");
    ("protocol.read_ns", "ns", ratio acc "read_ns" "reads");
    ("protocol.receive_words", "words", ratio acc "receive_words" "receives");
    ("protocol.wakeup_scans_per_receive", "count", ratio acc "wakeup_scans" "receives");
    ("protocol.delayed_per_receive", "ratio", ratio acc "delayed" "receives");
    ("protocol.snapshot_ns", "ns", ratio acc "snapshot_ns" "snapshots");
    ("protocol.restore_ns", "ns", ratio acc "restore_ns" "restores");
    ("execution.record_ns_per_event", "ns", ratio acc "exec_replay_ns" "events");
    ("execution.words_per_event", "words", ratio acc "exec_replay_words" "events");
    ("execution.events_per_msg", "count", ratio acc "events" "msgs");
    ("network.ns_per_send", "ns", ratio acc "net_replay_ns" "net_sends");
    ("network.words_per_send", "words", ratio acc "net_replay_words" "net_sends");
    ("engine.ns_per_event", "ns", ratio acc "engine_replay_ns" "replay_steps");
    ("engine.steps_per_msg", "count", ratio acc "steps" "msgs");
    ("channel.frames_per_payload", "count", ratio acc "frames" "payloads");
    ("channel.retransmissions_per_payload", "count", ratio acc "retransmissions" "payloads");
    ("channel.duplicates_discarded_per_payload", "count", ratio acc "duplicates" "payloads");
    ("channel.useful_frame_ratio", "ratio", ratio acc "payloads" "frames");
    ("channel.ns_per_frame", "ns", ratio acc "chan_replay_ns" "chan_frames");
    ("run.ns_per_msg", "ns", per_msg "untraced_run_ns");
    ("run.words_per_msg", "words", per_msg "untraced_run_words");
    ("run.msgs_per_op", "count", ratio acc "msgs" "ops");
    ("checker.to_history_ns_per_op", "ns", per_op "to_history_ns");
    ("checker.write_vectors_ns_per_op", "ns", per_op "write_vectors_ns");
    ( "checker.check_self_ns_per_msg", "ns",
      (get acc "check_ns" -. get acc "to_history_ns" -. get acc "write_vectors_ns")
      /. get acc "msgs" );
    ("checker.words_per_msg", "words", per_msg "check_words");
    ("generator.ns_per_op", "ns", per_op "generate_ns");
    ("probes.ns_per_op", "ns", per_op "probes_delta_ns");
    ("campaign.ns_per_schedule", "ns", ratio acc "campaign_ns" "schedules");
    ("trace.overhead_pct", "%", 100. *. (get acc "traced_ns" -. untraced) /. untraced);
    ("unattributed.ns_per_msg", "ns", unattributed /. get acc "msgs");
  ]

let campaign_sample = 4

let traced w ~seed ~seconds =
  let inputs, _ = setup (module Opt_p) w ~seed in
  let round =
    match w.W.kind with
    | W.Sim s ->
        let specs = specs_of inputs in
        let sample =
          Array.init campaign_sample (fun i ->
              Nemesis.random_schedule ~seed:(W.sub_seed ~seed i) ())
        in
        fun () -> sim_traced_round s specs ~sample
    | W.Swarm _ ->
        let scheds = schedules_of inputs in
        fun () -> swarm_traced_round scheds
  in
  let accs = rounds ~seconds round in
  say "workload %s seed %d: %d traced rounds" w.W.name seed (List.length accs);
  say "ledger: host ns per wire message inside the traced run (median of rounds)";
  let per_msg acc v = v /. get acc "msgs" in
  let layer_rows = List.map (fun acc -> ledger acc) accs in
  let total = median (List.map (fun acc -> per_msg acc (get acc "traced_ns")) accs) in
  List.iter
    (fun (layer, _) ->
      let v =
        median
          (List.map2
             (fun acc rows -> per_msg acc (List.assoc layer rows))
             accs layer_rows)
      in
      say "  %-14s %10.1f ns/msg  %5.1f%%" layer v (100. *. v /. total))
    (List.hd layer_rows);
  say "  %-14s %10.1f ns/msg  (traced run + audit)" "total" total;
  let untraced =
    median
      (List.map
         (fun acc ->
           per_msg acc (get acc "untraced_run_ns" +. get acc "untraced_check_ns"))
         accs)
  in
  say "  %-14s %10.1f ns/msg  (trace overhead %.1f%%)" "untraced" untraced
    (100. *. (total -. untraced) /. untraced);
  say "per-layer metrics";
  let names = List.map (fun (n, u, _) -> (n, u)) (layer_metrics (List.hd accs)) in
  let per_round = List.map layer_metrics accs in
  let metrics =
    List.mapi
      (fun i (name, unit_) ->
        summarize name unit_
          (List.map (fun rows -> let _, _, v = List.nth rows i in v) per_round))
      names
  in
  let sum k = List.fold_left (fun a acc -> a + int_of_float (get acc k)) 0 accs in
  let failed = sum "failed" in
  { correct = failed = 0 && sum "inconsistent" = 0; attempted = sum "attempted"; failed; metrics }
