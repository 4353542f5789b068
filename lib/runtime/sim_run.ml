module Protocol = Dsm_core.Protocol
module Engine = Dsm_sim.Engine
module Network = Dsm_sim.Network
module Rng = Dsm_sim.Rng
module Spec = Dsm_workload.Spec

type outcome = {
  execution : Execution.t;
  protocol_name : string;
  messages_sent : int;
  messages_delivered : int;
  engine_steps : int;
  end_time : float;
  buffer_high_watermarks : int array;
  total_buffered : int array;
  skipped_writes : int;
}

let write_value ~proc ~seq = (proc * 1_000_000) + seq

let run (module P : Protocol.S) ~spec ~latency ?latency_fn ?(fifo = false)
    ?(faults = Network.no_faults) ?(seed = 1) ?(max_steps = 10_000_000)
    ?(metrics = Dsm_obs.Metrics.null ()) ?(wire = Dsm_obs.Wire.null ())
    ?(recorder = Dsm_obs.Timeseries.null ()) ?(scrape_every = 25.)
    ?(queue = Engine.Indexed) ?(arena = true)
    ?(batch = false) () =
  let cfg = Protocol.config ~n:spec.Spec.n ~m:spec.Spec.m in
  let schedule = Dsm_workload.Generator.generate spec in
  let engine = Engine.create ~queue () in
  let rng = Rng.create seed in
  let latency_of =
    match latency_fn with
    | Some f -> f
    | None -> fun ~src:_ ~dst:_ -> latency
  in
  let network =
    Network.create ~engine ~rng ~n:spec.Spec.n ~latency:latency_of ~fifo
      ~arena ~batch ~faults ~metrics ~wire ~measure:P.msg_frame
      ~sizer:(fun m -> Dsm_obs.Wire.frame_bytes (P.msg_frame m))
      ()
  in
  (* flight recorder: periodic registry scrapes on the sim clock,
     bounded to the workload horizon so the tick stream cannot keep the
     queue alive past the last scheduled operation. Ticks are pure
     registry reads — no RNG draw, no protocol state — so the run's
     observable outcome is unchanged (pinned by the differential
     suite). *)
  if Dsm_obs.Timeseries.enabled recorder then begin
    let horizon =
      Array.fold_left
        (fun acc ops ->
          List.fold_left (fun acc { Spec.at; _ } -> Float.max acc at) acc ops)
        0. schedule
    in
    if horizon >= scrape_every then
      Engine.schedule_every engine ~every:scrape_every
        ~until:(Dsm_sim.Sim_time.of_float horizon) (fun () ->
          Dsm_obs.Timeseries.scrape recorder
            ~now:(Dsm_sim.Sim_time.to_float (Engine.now engine)))
  end;
  let execution = Execution.create ~n:spec.Spec.n ~m:spec.Spec.m () in
  let module N = Node.Make (P) in
  let nodes =
    Array.init spec.Spec.n (fun me ->
        N.create ~cfg ~me ~engine ~network ~execution ~metrics ())
  in
  (* schedule every operation at its issue time *)
  Array.iteri
    (fun proc ops ->
      let write_seq = ref 0 in
      List.iter
        (fun { Spec.at; op } ->
          match op with
          | Spec.Do_write { var } ->
              incr write_seq;
              let seq = !write_seq in
              Engine.schedule_at engine (Dsm_sim.Sim_time.of_float at)
                (fun () ->
                  ignore
                    (N.write nodes.(proc) ~var
                       ~value:(write_value ~proc ~seq)))
          | Spec.Do_read { var } ->
              Engine.schedule_at engine (Dsm_sim.Sim_time.of_float at)
                (fun () -> ignore (N.read nodes.(proc) ~var)))
        ops)
    schedule;
  (match Engine.run ~max_steps engine with
  | Engine.Drained -> ()
  | Engine.Hit_step_limit ->
      failwith
        (Printf.sprintf
           "Sim_run: %s did not quiesce within %d events (liveness bug?)"
           P.name max_steps)
  | Engine.Hit_time_limit -> assert false (* no [until] given *));
  (* end-of-run scrape of the counters protocols keep internally *)
  if Dsm_obs.Metrics.enabled metrics then begin
    let module M = Dsm_obs.Metrics in
    let sum f = Array.fold_left (fun acc n -> acc + f (N.protocol n)) 0 nodes in
    let max_of f =
      Array.fold_left (fun acc n -> max acc (f (N.protocol n))) 0 nodes
    in
    M.add (M.counter metrics "buffer_wakeup_scans")
      (sum P.buffer_wakeup_scans);
    M.add (M.counter metrics "buffer_total_buffered") (sum P.total_buffered);
    M.set (M.gauge metrics "buffer_high_watermark")
      (max_of P.buffer_high_watermark)
  end;
  {
    execution;
    protocol_name = P.name;
    messages_sent = Network.messages_sent network;
    messages_delivered = Network.messages_delivered network;
    engine_steps = Engine.steps_executed engine;
    end_time = Dsm_sim.Sim_time.to_float (Engine.now engine);
    buffer_high_watermarks =
      Array.map (fun n -> P.buffer_high_watermark (N.protocol n)) nodes;
    total_buffered =
      Array.map (fun n -> P.total_buffered (N.protocol n)) nodes;
    skipped_writes = Execution.skip_count execution;
  }

let pp_outcome ppf o =
  Format.fprintf ppf
    "@[<v>%s: %d events, %d msgs sent / %d delivered, t_end=%.1f@,\
     applies=%d delays=%d skips=%d buffer-high=%a@]"
    o.protocol_name (Execution.event_count o.execution) o.messages_sent
    o.messages_delivered o.end_time
    (Execution.apply_count o.execution)
    (Execution.delay_count o.execution)
    o.skipped_writes
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       Format.pp_print_int)
    (Array.to_list o.buffer_high_watermarks)
