(* The benchmark's workloads and the audited runs they are made of.

   Every workload is OptP on one process and one thread. Inputs are a
   pure function of the run's seed, so two runs with the same seed see
   the same schedules; each run cycles over several inputs so that one
   seed's quirks weigh less in its medians. *)

module Protocol = Dsm_core.Protocol
module Spec = Dsm_workload.Spec
module Latency = Dsm_sim.Latency
module Network = Dsm_sim.Network
module Execution = Dsm_runtime.Execution
module Checker = Dsm_runtime.Checker
module Nemesis = Dsm_runtime.Nemesis
module Churn_campaign = Dsm_runtime.Churn_campaign
module Metrics = Dsm_obs.Metrics
module Wire = Dsm_obs.Wire
module Timeseries = Dsm_obs.Timeseries

type sim = {
  n : int;
  m : int;
  ops : int;  (** per process *)
  write_ratio : float;
  lossy : bool;
      (** drop 0.1 / duplicate 0.05 links under [Reliable_run], with the
          full probe stack of [dsm-sim report]; otherwise perfect links
          under [Sim_run] with null probes *)
  inputs : int;  (** workload specs per round *)
}

type kind = Sim of sim | Swarm of { schedules : int }
type t = { name : string; why : string; kind : kind }

let latency = Latency.Exponential { mean = 10. }
let lossy_faults = { Network.no_faults with drop = 0.1; duplicate = 0.05 }
let zipf = Spec.Zipf_vars 1.2

let all =
  [
    {
      name = "steady-n32";
      why =
        "the canonical rung: protocol, execution log and network are the \
         whole run; channel and probes bypassed";
      kind =
        Sim { n = 32; m = 8; ops = 60; write_ratio = 0.5; lossy = false; inputs = 4 };
    };
    {
      name = "wide-n128";
      why =
        "128-wide vectors: the audit and the heap dominate and reads merge \
         wide vectors";
      kind =
        Sim { n = 128; m = 8; ops = 40; write_ratio = 0.2; lossy = false; inputs = 2 };
    };
    {
      name = "lossy-n16";
      why =
        "the only workload where the reliable channel and the full probe \
         stack do the work";
      kind =
        Sim { n = 16; m = 8; ops = 64; write_ratio = 0.5; lossy = true; inputs = 16 };
    };
    {
      name = "swarm";
      why =
        "nemesis fault schedules: WAL and snapshots, membership, failure \
         detector and sessions";
      kind = Swarm { schedules = 300 };
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* The same shapes at a size a unit test can afford. *)
let small w =
  match w.kind with
  | Sim s ->
      let n = min s.n 6 in
      { w with kind = Sim { s with n; ops = 12; inputs = min s.inputs 2 } }
  | Swarm _ -> { w with kind = Swarm { schedules = 6 } }

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)
(* ------------------------------------------------------------------ *)

type input = Spec of Spec.t | Schedules of Nemesis.schedule array

(* Input [k] of seed [seed]; seeds of different runs never share an
   input as long as they differ. *)
let sub_seed ~seed k = (seed * 1000) + k

let inputs w ~seed =
  match w.kind with
  | Sim s ->
      List.init s.inputs (fun k ->
          Spec
            (Spec.make ~n:s.n ~m:s.m ~ops_per_process:s.ops
               ~write_ratio:s.write_ratio ~var_dist:zipf
               ~seed:(sub_seed ~seed k) ()))
  | Swarm { schedules } ->
      [
        Schedules
          (Array.init schedules (fun i ->
               Nemesis.random_schedule ~seed:(sub_seed ~seed i) ()));
      ]

(* ------------------------------------------------------------------ *)
(* Simulation runs                                                     *)
(* ------------------------------------------------------------------ *)

type channel = {
  payloads : int;
  frames : int;
  retransmissions : int;
  duplicates_discarded : int;
}

type sim_out = {
  execution : Execution.t;
  msgs : int;  (** wire messages: network sends, or channel frames *)
  steps : int;  (** engine events *)
  channel : channel option;
}

type probes = { metrics : Metrics.t; wire : Wire.t; recorder : Timeseries.t }

let null_probes () =
  { metrics = Metrics.null (); wire = Wire.null (); recorder = Timeseries.null () }

let full_probes ~n =
  let metrics = Metrics.create () in
  {
    metrics;
    wire = Wire.create ~proto:Dsm_core.Opt_p.name ~n ();
    recorder = Timeseries.create ~metrics ();
  }

(* The probes the workload itself runs with. *)
let probes_of s = if s.lossy then full_probes ~n:s.n else null_probes ()

let simulate (module P : Protocol.S) s ~probes spec =
  let { metrics; wire; recorder } = probes in
  let seed = spec.Spec.seed in
  if s.lossy then
    let o =
      Dsm_runtime.Reliable_run.run
        (module P)
        ~spec ~latency ~faults:lossy_faults ~seed ~metrics ~wire ~recorder ()
    in
    {
      execution = o.execution;
      msgs = o.frames_sent;
      steps = o.engine_steps;
      channel =
        Some
          {
            payloads = o.payloads_sent;
            frames = o.frames_sent;
            retransmissions = o.retransmissions;
            duplicates_discarded = o.duplicates_discarded;
          };
    }
  else
    let o =
      Dsm_runtime.Sim_run.run
        (module P)
        ~spec ~latency ~seed ~metrics ~wire ~recorder ()
    in
    {
      execution = o.execution;
      msgs = o.messages_sent;
      steps = o.engine_steps;
      channel = None;
    }

(* A failed operation: a safety or legality violation, a lost write, or
   a delay that Theorem 4 says OptP never needs. *)
let failures (r : Checker.report) =
  List.length r.violations + List.length r.lost + r.unnecessary_delays

(* Operations the processes actually issued. *)
let ops_of execution =
  List.fold_left
    (fun acc (e : Execution.event) ->
      match e.kind with
      | Return _ -> acc + 1
      | Apply { dot; _ } when Dsm_vclock.Dot.replica dot = e.proc -> acc + 1
      | _ -> acc)
    0 (Execution.events execution)

(* ------------------------------------------------------------------ *)
(* Nemesis schedules                                                   *)
(* ------------------------------------------------------------------ *)

(* [Nemesis.run] with a caller-chosen protocol module and probes, so the
   timing wrapper and the wire accountant can ride a schedule. The
   verdict must match [Nemesis.run]'s; the benchmark checks that it
   does. *)
let schedule_spec (s : Nemesis.schedule) =
  Spec.make ~n:s.universe ~m:s.vars ~ops_per_process:s.ops_per_process
    ~write_ratio:s.write_ratio ~seed:s.seed ()

let campaign (module P : Protocol.S) ?metrics ?wire (s : Nemesis.schedule) =
  let spec = schedule_spec s in
  match
    Churn_campaign.run
      (module P)
      ~spec ~latency:s.latency ?faults:s.faults ~plan:s.plan
      ~initial:s.initial ?detector:s.detector ~mixed:true
      ?sessions:s.sessions ~seed:s.seed ?metrics ?wire ()
  with
  | o -> (Nemesis.classify ~optimal:(Nemesis.optimal_protocol s.protocol) o, Some o)
  | exception _ -> (Nemesis.Stuck, None)

(* ------------------------------------------------------------------ *)
(* Simulated statistics                                                *)
(* ------------------------------------------------------------------ *)

(* Simulated time from a write's local apply at its issuer to its apply
   at each other replica. *)
let visibility execution =
  let events = Execution.events execution in
  let issued = Hashtbl.create 1024 in
  List.iter
    (fun (e : Execution.event) ->
      match e.kind with
      | Apply { dot; _ } when Dsm_vclock.Dot.replica dot = e.proc ->
          Hashtbl.replace issued dot (Dsm_sim.Sim_time.to_float e.time)
      | _ -> ())
    events;
  List.filter_map
    (fun (e : Execution.event) ->
      match e.kind with
      | Apply { dot; _ } when Dsm_vclock.Dot.replica dot <> e.proc ->
          Option.map
            (fun t0 -> Dsm_sim.Sim_time.to_float e.time -. t0)
            (Hashtbl.find_opt issued dot)
      | _ -> None)
    events

type sim_stats = {
  mutable s_ops : int;
  mutable s_msgs : int;
  mutable s_steps : int;
  mutable s_events : int;
  mutable s_delays : int;
  mutable s_necessary : int;
  mutable s_failed : int;
  mutable s_wire_bytes : int;
  mutable s_visibility : float list;
  mutable s_verdicts : (Nemesis.verdict * int) list;
}

(* Of a sorted array; linear interpolation between closest ranks. *)
let quantile sorted q =
  let len = Array.length sorted in
  if len = 0 then nan
  else
    let pos = q *. float_of_int (len - 1) in
    let lo = int_of_float pos in
    let hi = min (len - 1) (lo + 1) in
    sorted.(lo) +. ((pos -. float_of_int lo) *. (sorted.(hi) -. sorted.(lo)))

(* One instrumented pass over every input: the simulated statistics of
   the workload at [seed]. Host-only changes must leave them, and so the
   fingerprint, byte-identical. *)
let stats (module P : Protocol.S) w input_list =
  let st =
    {
      s_ops = 0;
      s_msgs = 0;
      s_steps = 0;
      s_events = 0;
      s_delays = 0;
      s_necessary = 0;
      s_failed = 0;
      s_wire_bytes = 0;
      s_visibility = [];
      s_verdicts = [];
    }
  in
  let absorb execution (r : Checker.report) ~msgs ~steps ~wire =
    st.s_ops <- st.s_ops + ops_of execution;
    st.s_msgs <- st.s_msgs + msgs;
    st.s_steps <- st.s_steps + steps;
    st.s_events <- st.s_events + Execution.event_count execution;
    st.s_delays <- st.s_delays + r.total_delays;
    st.s_necessary <- st.s_necessary + r.necessary_delays;
    st.s_wire_bytes <- st.s_wire_bytes + Wire.total_bytes wire;
    st.s_visibility <- List.rev_append (visibility execution) st.s_visibility
  in
  List.iter
    (fun input ->
      match (w.kind, input) with
      | Sim s, Spec spec ->
          let probes = full_probes ~n:s.n in
          let o = simulate (module P) s ~probes spec in
          let r = Checker.check o.execution in
          st.s_failed <- st.s_failed + failures r;
          absorb o.execution r ~msgs:o.msgs ~steps:o.steps ~wire:probes.wire
      | Swarm _, Schedules scheds ->
          let tally = Hashtbl.create 8 in
          Array.iter
            (fun (s : Nemesis.schedule) ->
              let wire = Wire.create ~proto:P.name ~n:s.universe () in
              let verdict, o = campaign (module P) ~wire s in
              Hashtbl.replace tally verdict
                (1 + Option.value ~default:0 (Hashtbl.find_opt tally verdict));
              if not (Nemesis.accepted verdict) then
                st.s_failed <- st.s_failed + 1;
              Option.iter
                (fun (o : Churn_campaign.outcome) ->
                  absorb o.execution o.report ~msgs:o.frames_sent
                    ~steps:o.engine_steps ~wire)
                o)
            scheds;
          st.s_verdicts <-
            List.filter_map
              (fun v -> Option.map (fun c -> (v, c)) (Hashtbl.find_opt tally v))
              [
                Nemesis.Clean; Refuted_suspicion; Degraded_session;
                Unnecessary_delay; Ghost_leak; Session_anomaly; Diverged;
                Violation; Stuck;
              ]
      | _ -> invalid_arg "Workload.stats: input does not match the workload")
    input_list;
  st

let sorted_visibility st =
  let a = Array.of_list st.s_visibility in
  Array.sort Float.compare a;
  a

(* Remote applies, each of which may have been delayed. *)
let remote_applies st = List.length st.s_visibility

let fingerprint st =
  let v = sorted_visibility st in
  Printf.sprintf
    "ops=%d msgs=%d steps=%d events=%d delays=%d necessary=%d failed=%d \
     wire_bytes=%d visibility=%d/%.17g/%.17g verdicts=%s"
    st.s_ops st.s_msgs st.s_steps st.s_events st.s_delays st.s_necessary
    st.s_failed st.s_wire_bytes (Array.length v) (quantile v 0.5)
    (quantile v 0.99)
    (String.concat ","
       (List.map
          (fun (verdict, c) ->
            Printf.sprintf "%s:%d" (Nemesis.verdict_name verdict) c)
          st.s_verdicts))
