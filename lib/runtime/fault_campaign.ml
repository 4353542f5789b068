module Protocol = Dsm_core.Protocol
module Engine = Dsm_sim.Engine
module Network = Dsm_sim.Network
module Reliable_channel = Dsm_sim.Reliable_channel
module Fault_plan = Dsm_sim.Fault_plan
module Sim_time = Dsm_sim.Sim_time
module Rng = Dsm_sim.Rng
module Spec = Dsm_workload.Spec
module V = Dsm_vclock.Vector_clock
module Dot = Dsm_vclock.Dot
module Metrics = Dsm_obs.Metrics

type 'msg wire =
  | Proto of 'msg
  | Sync_request of { vec : int array }
  | Sync_reply of { vec : int array; writes : 'msg list }

(* frame-shape measurer over the campaign envelope, for the byte-cost
   accountant: protocol messages keep their own shape, anti-entropy
   traffic appears under a "sync" cause — a request is one vector, a
   reply is its vector plus every carried write's shape *)
let wire_of_env msg_frame = function
  | Proto m -> msg_frame m
  | Sync_request { vec } ->
      {
        Dsm_obs.Wire.kind = "sync";
        scalars = 0;
        dots = 0;
        vectors = [ V.of_array vec ];
      }
  | Sync_reply { vec; writes } ->
      List.fold_left
        (fun acc m ->
          let f = msg_frame m in
          {
            acc with
            Dsm_obs.Wire.scalars = acc.Dsm_obs.Wire.scalars + f.Dsm_obs.Wire.scalars;
            dots = acc.Dsm_obs.Wire.dots + f.Dsm_obs.Wire.dots;
            vectors = acc.Dsm_obs.Wire.vectors @ f.Dsm_obs.Wire.vectors;
          })
        {
          Dsm_obs.Wire.kind = "sync";
          scalars = 1;  (* reply round tag *)
          dots = 0;
          vectors = [ V.of_array vec ];
        }
        writes

type recovery = {
  rproc : int;
  crashed_at : float;
  recovered_at : float;
  rolled_back_events : int;
  mutable caught_up_at : float option;
  mutable replayed : int;
  mutable sync_target : int array option;
}

type replica_state = {
  sproc : int;
  sapplied : int array;
  sclock : int array;
  sstore : (Dsm_memory.Operation.value * Dot.t option) list;
}

type outcome = {
  execution : Execution.t;
  report : Checker.report;
  protocol_name : string;
  plan : Fault_plan.t;
  recoveries : recovery list;
  down_at_end : int list;
  final_states : replica_state list;  (** live replicas, ascending id *)
  live_equal : bool;
  clean : bool;
  commits : int;
  snapshot_bytes : int;
  rolled_back_events : int;
  ops_skipped_down : int;
  sync_requests : int;
  sync_replies : int;
  replayed_writes : int;
  stale_deliveries_dropped : int;
  aborted_payloads : int;
  payloads_sent : int;
  frames_sent : int;
  frames_dropped : int;
  frames_partition_dropped : int;
  frames_crash_dropped : int;
  retransmissions : int;
  duplicates_discarded : int;
  engine_steps : int;
  end_time : float;
}

(* per-process runtime wrapper around the protocol state *)
type ('proto, 'msg) node = {
  id : int;
  mutable proto : 'proto;
  mutable down : bool;
  mutable ever_crashed : bool;
  mutable durable : (string * string) option;
      (* (protocol snapshot, serialized write log) — the checkpoint *)
  mutable log : (Dot.t, 'msg) Hashtbl.t;
      (* every write message this process issued or received; feeds the
         anti-entropy replies it serves.  Checkpointed with the
         protocol snapshot, so it never claims more than the durable
         state can back. *)
  mutable staged : (Sim_time.t * Execution.kind) list;  (* newest first *)
  mutable staged_count : int;
  mutable write_seq : int;
  mutable last_crash : float;
  mutable cur : recovery option;  (* open recovery, until caught up *)
}

(* this harness keeps the replica set static for its whole lifetime;
   membership is Churn_campaign's job, so a churny plan is rejected up
   front with a pointer at the right driver rather than silently
   ignoring the view changes *)
let validate_plan ~n plan =
  (* the churn check comes first: a churny plan is usually well-formed
     for the churn driver, and the useful answer is "wrong driver", not
     whichever state-machine complaint full-membership validation hits *)
  (if Fault_plan.has_churn plan then
    let ev =
      List.find
        (function
          | Fault_plan.Join _ | Fault_plan.Leave _ -> true | _ -> false)
        plan
    in
    invalid_arg
      (Format.asprintf
         "Fault_campaign.run: static membership only, but the plan contains \
          %a — membership changes need a churn-aware driver: \
          Nemesis.run for combined fault schedules (CLI: dsm-sim \
          nemesis), or Churn_campaign.run for churn alone (CLI: dsm-sim run \
          --join/--leave/--churn, or --fd for detector-driven views)"
         Fault_plan.pp_event ev));
  Fault_plan.validate ~n plan

let run (type pt pm)
    (module P : Protocol.S with type t = pt and type msg = pm) ~spec
    ~latency ?(faults = Network.no_faults) ~plan ?(checkpoint_every = 50.)
    ?(sync_rounds = 2) ?(sync_interval = 100.) ?(settle = true)
    ?(retransmit_after = 50.) ?(seed = 1) ?(max_steps = 20_000_000)
    ?(metrics = Metrics.null ()) ?(wire = Dsm_obs.Wire.null ())
    ?(recorder = Dsm_obs.Timeseries.null ()) ?(scrape_every = 25.)
    ?(queue = Engine.Indexed) ?(arena = true) ?(batch = false) () =
  let n = spec.Spec.n and m = spec.Spec.m in
  let cfg = Protocol.config ~n ~m in
  validate_plan ~n plan;
  if checkpoint_every <= 0. then
    invalid_arg "Fault_campaign.run: checkpoint_every must be positive";
  let schedule = Dsm_workload.Generator.generate spec in
  let engine = Engine.create ~queue () in
  let rng = Rng.create seed in
  let measure = Reliable_channel.wire_frame (wire_of_env P.msg_frame) in
  let network =
    Network.create ~engine ~rng ~n
      ~latency:(fun ~src:_ ~dst:_ -> latency)
      ~arena ~batch ~faults ~mangle:Reliable_channel.corrupt_frame ~metrics
      ~wire ~measure
      ~sizer:(fun f -> Dsm_obs.Wire.frame_bytes (measure f))
      ()
  in
  if Dsm_obs.Timeseries.enabled recorder then begin
    let horizon =
      let ops_horizon =
        Array.fold_left
          (fun acc ops ->
            List.fold_left
              (fun acc { Spec.at; _ } -> Float.max acc at)
              acc ops)
          0. schedule
      in
      List.fold_left
        (fun acc ev ->
          Float.max acc (Sim_time.to_float (Fault_plan.time ev)))
        ops_horizon plan
    in
    if horizon >= scrape_every then
      Engine.schedule_every engine ~every:scrape_every
        ~until:(Sim_time.of_float horizon) (fun () ->
          Dsm_obs.Timeseries.scrape recorder
            ~now:(Sim_time.to_float (Engine.now engine)))
  end;
  let channel =
    Reliable_channel.create ~engine ~network ~retransmit_after ~rng
      ~metrics ()
  in
  let probe_checkpoints = Metrics.counter metrics "campaign_checkpoints" in
  let probe_checkpoint_bytes =
    Metrics.counter metrics "campaign_checkpoint_bytes"
  in
  let probe_rollback_depth =
    (* events lost per recovery: durable-state restore distance *)
    Metrics.histogram metrics "campaign_rollback_depth" ~lo:0. ~hi:64.
      ~bins:16
  in
  let probe_replayed = Metrics.counter metrics "campaign_replayed_writes" in
  let probe_sync_requests =
    Metrics.counter metrics "campaign_sync_requests"
  in
  let probe_sync_replies = Metrics.counter metrics "campaign_sync_replies" in
  let execution = Execution.create ~n ~m () in
  let nodes =
    Array.init n (fun id ->
        {
          id;
          proto = P.create cfg ~me:id;
          down = false;
          ever_crashed = false;
          durable = None;
          log = Hashtbl.create 256;
          staged = [];
          staged_count = 0;
          write_seq = 0;
          last_crash = 0.;
          cur = None;
        })
  in
  (* The driver's membership oracle is the live {!Membership} view, not
     a peek into the plan's future: senders address only currently
     {e active} members.  A down process is not addressed at all — no
     retransmission timers accumulate toward it (they would keep the
     simulation alive forever for a corpse), and on recovery it pulls
     everything it missed through its anti-entropy sync rounds instead
     of relying on frames parked across the outage. *)
  let membership =
    Membership.create ~universe:n ~initial:(List.init n Fun.id) ()
  in
  Network.set_membership network (Membership.is_member membership);
  let ch_send ~src ~dst msg =
    if Membership.is_active membership dst then
      Reliable_channel.send channel ~src ~dst msg
  in
  let ch_broadcast ~src msg =
    for dst = 0 to n - 1 do
      if dst <> src then ch_send ~src ~dst msg
    done
  in
  let recoveries = ref [] in
  let commits = ref 0 in
  let snapshot_bytes = ref 0 in
  let rolled_back = ref 0 in
  let ops_skipped = ref 0 in
  let sync_requests = ref 0 in
  let sync_replies = ref 0 in
  let replayed_writes = ref 0 in
  let stale_dropped = ref 0 in
  let aborted = ref 0 in
  let nowf () = Sim_time.to_float (Engine.now engine) in

  let record node kind =
    node.staged <- (Engine.now engine, kind) :: node.staged;
    node.staged_count <- node.staged_count + 1
  in
  (* commit = make everything since the last commit durable: flush the
     staged events into the recorded execution and serialize protocol
     state + write log.  Called after every local write (so a write is
     durable before its broadcast leaves — no dot is ever reissued) and
     at the periodic checkpoints (so received writes also become
     durable without waiting for the next local write). *)
  let commit node =
    List.iter
      (fun (time, kind) ->
        Execution.record execution ~proc:node.id ~time kind)
      (List.rev node.staged);
    node.staged <- [];
    node.staged_count <- 0;
    let image = P.snapshot node.proto in
    let log_image = Protocol.Snapshot.encode node.log in
    node.durable <- Some (image, log_image);
    incr commits;
    Metrics.incr probe_checkpoints;
    Metrics.add probe_checkpoint_bytes
      (String.length image + String.length log_image);
    snapshot_bytes := !snapshot_bytes + String.length image
                      + String.length log_image
  in
  let log_outbound node msg =
    List.iter
      (fun (dot, _, _) -> Hashtbl.replace node.log dot msg)
      (P.msg_writes msg)
  in
  let covered node dot =
    let v = P.applied_vector node.proto in
    V.get v (Dot.replica dot) >= Dot.seq dot
  in
  let check_caught_up node =
    match node.cur with
    | Some r when r.caught_up_at = None -> (
        match r.sync_target with
        | None -> ()
        | Some target ->
            let v = P.applied_vector node.proto in
            let ok = ref true in
            Array.iteri (fun i want -> if V.get v i < want then ok := false)
              target;
            if !ok then begin
              r.caught_up_at <- Some (nowf ());
              node.cur <- None
            end)
    | _ -> ()
  in
  let rec process node (eff : pm Protocol.effects) =
    List.iter (fun dot -> record node (Execution.Skip { dot })) eff.skipped;
    List.iter
      (fun (a : Protocol.apply_record) ->
        record node
          (Execution.Apply
             {
               dot = a.adot;
               var = a.avar;
               value = a.avalue;
               delayed = a.afrom_buffer;
             }))
      eff.applied;
    List.iter
      (fun outbound ->
        let msg =
          match outbound with
          | Protocol.Broadcast msg -> msg
          | Protocol.Unicast { msg; _ } -> msg
        in
        log_outbound node msg;
        List.iter
          (fun (dot, var, value) ->
            record node (Execution.Send { dot; var; value }))
          (P.msg_writes msg);
        match outbound with
        | Protocol.Broadcast msg ->
            ch_broadcast ~src:node.id (Proto msg)
        | Protocol.Unicast { dst; msg } ->
            ch_send ~src:node.id ~dst (Proto msg))
      eff.to_send
  (* one protocol message into the normal receive path.  [src] is the
     semantic sender recorded in the receipt: the channel peer on the
     live path, the original issuer on the anti-entropy replay path. *)
  and deliver_proto node ~src msg =
    log_outbound node msg;
    let writes = P.msg_writes msg in
    if writes <> [] && List.for_all (fun (dot, _, _) -> covered node dot)
                         writes
    then
      (* an echo of a write this state already holds: possible only
         after a crash cleared the channel's dedup tables, or when a
         sync reply races the normal delivery *)
      incr stale_dropped
    else begin
      List.iter
        (fun (dot, _, _) -> record node (Execution.Receipt { dot; src }))
        writes;
      let eff = P.receive node.proto ~src msg in
      (* same rule as {!Node.Make}: a carried write that neither applied
         nor skipped was buffered — name the predecessor it waits on *)
      (match writes with
      | [] -> ()
      | _ when eff.Protocol.applied = [] && eff.Protocol.skipped = [] -> (
          match P.waiting_for node.proto ~src msg with
          | Some waiting_for ->
              List.iter
                (fun (dot, _, _) ->
                  record node (Execution.Blocked { dot; waiting_for }))
                writes
          | None -> ())
      | _ -> ());
      process node eff;
      check_caught_up node
    end
  in
  let send_sync_request node =
    let vec = V.to_array (P.applied_vector node.proto) in
    for dst = 0 to n - 1 do
      (* a down peer cannot answer; if it recovers it will run its own
         sync rounds, so skipping it loses nothing *)
      if dst <> node.id && not nodes.(dst).down then begin
        incr sync_requests;
        Metrics.incr probe_sync_requests;
        Reliable_channel.send channel ~src:node.id ~dst
          (Sync_request { vec })
      end
    done
  in
  let issuer_of msg =
    match P.msg_writes msg with
    | (dot, _, _) :: _ -> Dot.replica dot
    | [] ->
        invalid_arg
          "Fault_campaign: control message in the anti-entropy log"
  in
  let serve_sync node ~peer ~vec =
    let mine = V.to_array (P.applied_vector node.proto) in
    let out = ref [] in
    for u = n - 1 downto 0 do
      for s = mine.(u) downto vec.(u) + 1 do
        let dot = Dot.make ~replica:u ~seq:s in
        match Hashtbl.find_opt node.log dot with
        | Some msg -> out := msg :: !out
        | None ->
            invalid_arg
              (Printf.sprintf
                 "Fault_campaign: %s applied %s but its durable log \
                  cannot re-supply it (protocol outside the \
                  complete-broadcast class?)"
                 P.name (Dot.to_string dot))
      done
    done;
    incr sync_replies;
    Metrics.incr probe_sync_replies;
    ch_send ~src:node.id ~dst:peer
      (Sync_reply { vec = mine; writes = !out })
  in
  let absorb_sync node writes ~vec =
    (match node.cur with
    | Some r ->
        r.sync_target <-
          Some
            (match r.sync_target with
            | None -> Array.copy vec
            | Some t -> Array.mapi (fun i x -> max x vec.(i)) t)
    | None -> ());
    List.iter
      (fun msg ->
        let fresh =
          List.exists (fun (dot, _, _) -> not (covered node dot))
            (P.msg_writes msg)
        in
        if fresh then begin
          incr replayed_writes;
          Metrics.incr probe_replayed;
          (match node.cur with
          | Some r -> r.replayed <- r.replayed + 1
          | None -> ());
          deliver_proto node ~src:(issuer_of msg) msg
        end)
      writes;
    check_caught_up node
  in
  for dst = 0 to n - 1 do
    Reliable_channel.set_handler channel dst (fun ~src ~at:_ w ->
        let node = nodes.(dst) in
        if not node.down then
          match w with
          | Proto msg -> deliver_proto node ~src msg
          | Sync_request { vec } -> serve_sync node ~peer:src ~vec
          | Sync_reply { vec; writes } -> absorb_sync node writes ~vec)
  done;

  (* ---- fault plan wiring ------------------------------------------ *)
  (* The one remaining plan peek: whether a crashed process ever
     restarts is a fact about the future, which no live view can
     answer.  It only gates the corpse's own send-queue abandonment
     below — addressing decisions never consult it. *)
  let permanently_down = Fault_plan.down_at_end plan in
  let on_crash p =
    let node = nodes.(p) in
    Membership.crash membership ~at:(Engine.now engine) p;
    Network.set_epoch network (Membership.epoch membership);
    node.down <- true;
    node.ever_crashed <- true;
    node.last_crash <- nowf ();
    (* the un-checkpointed suffix dies with the process *)
    rolled_back := !rolled_back + node.staged_count;
    node.staged <- [];
    node.staged_count <- 0;
    node.cur <- None;
    Network.mark_crashed network p;
    aborted := !aborted + Reliable_channel.abort_peer channel ~peer:p;
    (* a corpse can never process the acks its pre-crash sends earn
       (the network crash-drops them), so abandon its send queue too —
       but only if the plan never restarts it: for a recovering process
       those armed timers are the durable send queue.  Abandoning the
       queue means its pre-crash broadcasts may have reached only some
       of the live replicas, so the survivors gossip among themselves to
       re-disseminate whatever any of them already applied. *)
    if List.mem p permanently_down then begin
      aborted := !aborted + Reliable_channel.abort_sender channel ~peer:p;
      for k = 1 to sync_rounds do
        Engine.schedule_after engine (float_of_int k *. sync_interval)
          (fun () ->
            Array.iter
              (fun node -> if not node.down then send_sync_request node)
              nodes)
      done
    end
  in
  let on_recover p =
    let node = nodes.(p) in
    Membership.recover membership ~at:(Engine.now engine) p;
    Network.set_epoch network (Membership.epoch membership);
    node.down <- false;
    Network.mark_recovered network p;
    let rolled =
      match node.durable with
      | Some (image, log_image) ->
          let before = V.sum (P.applied_vector node.proto) in
          node.proto <- P.restore cfg ~me:p image;
          node.log <- Protocol.Snapshot.decode log_image;
          before - V.sum (P.applied_vector node.proto)
      | None ->
          let before = V.sum (P.applied_vector node.proto) in
          node.proto <- P.create cfg ~me:p;
          node.log <- Hashtbl.create 256;
          before
    in
    Metrics.observe probe_rollback_depth (float_of_int rolled);
    let r =
      {
        rproc = p;
        crashed_at = node.last_crash;
        recovered_at = nowf ();
        rolled_back_events = rolled;
        caught_up_at = None;
        replayed = 0;
        sync_target = None;
      }
    in
    node.cur <- Some r;
    recoveries := r :: !recoveries;
    (* anti-entropy: ask every peer for the writes this state misses,
       then a few follow-up rounds to cover writes that were still
       buffered (not yet applied) at the peers the first time *)
    send_sync_request node;
    for k = 1 to sync_rounds - 1 do
      Engine.schedule_after engine (float_of_int k *. sync_interval)
        (fun () -> if not node.down then send_sync_request node)
    done
  in
  Fault_plan.install plan ~engine
    ~on_crash ~on_recover
    ~on_cut:(fun groups -> Network.partition network groups)
    ~on_heal:(fun () -> Network.heal_all network)
    ~on_cut_oneway:(fun ~src ~dst -> Network.cut_oneway network ~src ~dst)
    ~on_heal_oneway:(fun ~src ~dst -> Network.heal_oneway network ~src ~dst)
    ~on_flap:(fun ~a ~b ~period ~until_ ->
      Network.flap network ~a ~b ~period ~until_)
    ~on_inflate:(fun ~src ~dst ~factor ~until_ ->
      Network.inflate network ~src ~dst ~factor ~until_)
    ();

  (* ---- workload ---------------------------------------------------- *)
  Array.iteri
    (fun proc ops ->
      let node = nodes.(proc) in
      List.iter
        (fun { Spec.at; op } ->
          Engine.schedule_at engine (Sim_time.of_float at) (fun () ->
              if node.down then incr ops_skipped
              else
                match op with
                | Spec.Do_write { var } ->
                    node.write_seq <- node.write_seq + 1;
                    let value =
                      Sim_run.write_value ~proc ~seq:node.write_seq
                    in
                    let _, eff = P.write node.proto ~var ~value in
                    process node eff;
                    commit node
                | Spec.Do_read { var } ->
                    let value, read_from = P.read node.proto ~var in
                    record node (Execution.Return { var; value; read_from })))
        ops)
    schedule;

  (* periodic checkpoints, up to the end of scripted activity (after
     that every write commits itself and nothing else needs to become
     durable) *)
  let horizon =
    let plan_end =
      List.fold_left
        (fun acc ev -> Float.max acc (Sim_time.to_float (Fault_plan.time ev)))
        0. plan
    in
    Float.max (Dsm_workload.Generator.end_time schedule) plan_end
  in
  let rec schedule_checkpoints at =
    if at <= horizon +. checkpoint_every then begin
      Engine.schedule_at engine (Sim_time.of_float at) (fun () ->
          Array.iter (fun node -> if not node.down then commit node) nodes);
      schedule_checkpoints (at +. checkpoint_every)
    end
  in
  schedule_checkpoints checkpoint_every;

  let drain phase =
    match Engine.run ~max_steps engine with
    | Engine.Drained -> ()
    | Engine.Hit_step_limit ->
        failwith
          (Printf.sprintf
             "Fault_campaign: %s did not quiesce within %d events (%s)"
             P.name max_steps phase)
    | Engine.Hit_time_limit -> assert false
  in
  drain "main phase";

  (* ---- final anti-entropy fixpoint --------------------------------- *)
  (* in-run sync rounds measure recovery latency; this pass guarantees
     completeness: a write still buffered at every peer when the last
     round fired is picked up here, after everything quiesced *)
  let rec final_sync iter =
    let before = !replayed_writes in
    let asked = ref false in
    Array.iter
      (fun node ->
        if node.ever_crashed && not node.down then begin
          asked := true;
          Engine.schedule_after engine 1. (fun () ->
              if not node.down then send_sync_request node)
        end)
      nodes;
    if !asked then begin
      drain "final sync";
      if !replayed_writes > before && iter < 32 then final_sync (iter + 1)
    end
  in
  final_sync 0;

  (* ---- settle phase ------------------------------------------------ *)
  (* Causal consistency permits live replicas to disagree forever on
     concurrent writes (experiment Q9 measures exactly that), and OptP's
     Write_co only grows on reads.  To make "all live replicas
     byte-identical" a checkable property, each live replica in turn
     reads everything and overwrites everything — chaining the sentinel
     writes causally, so the last replica's sentinels dominate every
     variable — and finally every live replica reads everything,
     absorbing the same LastWriteOn vectors into Write_co. *)
  let live () =
    Array.to_list nodes |> List.filter (fun node -> not node.down)
  in
  if settle then begin
    List.iter
      (fun node ->
        Engine.schedule_after engine 1. (fun () ->
            if not node.down then begin
              for var = 0 to m - 1 do
                let value, read_from = P.read node.proto ~var in
                record node (Execution.Return { var; value; read_from })
              done;
              for var = 0 to m - 1 do
                node.write_seq <- node.write_seq + 1;
                let value =
                  Sim_run.write_value ~proc:node.id ~seq:node.write_seq
                in
                let _, eff = P.write node.proto ~var ~value in
                process node eff
              done;
              commit node
            end);
        drain "settle")
      (live ());
    List.iter
      (fun node ->
        Engine.schedule_after engine 1. (fun () ->
            if not node.down then begin
              for var = 0 to m - 1 do
                let value, read_from = P.read node.proto ~var in
                record node (Execution.Return { var; value; read_from })
              done;
              commit node
            end))
      (live ());
    drain "settle reads"
  end;
  Array.iter (fun node -> if not node.down then commit node) nodes;

  (* end-of-run scrape of the counters the protocols keep internally *)
  if Metrics.enabled metrics then begin
    let sum f =
      Array.fold_left (fun acc node -> acc + f node.proto) 0 nodes
    in
    let max_of f =
      Array.fold_left (fun acc node -> max acc (f node.proto)) 0 nodes
    in
    Metrics.add (Metrics.counter metrics "buffer_wakeup_scans")
      (sum P.buffer_wakeup_scans);
    Metrics.add (Metrics.counter metrics "buffer_total_buffered")
      (sum P.total_buffered);
    Metrics.set (Metrics.gauge metrics "buffer_high_watermark")
      (max_of P.buffer_high_watermark)
  end;

  (* ---- verification ------------------------------------------------ *)
  let final_states =
    List.map
      (fun node ->
        {
          sproc = node.id;
          sapplied = V.to_array (P.applied_vector node.proto);
          sclock = V.to_array (P.local_clock node.proto);
          sstore =
            List.init m (fun var -> P.read node.proto ~var);
        })
      (live ())
  in
  let live_equal =
    match final_states with
    | [] | [ _ ] -> true
    | first :: rest ->
        List.for_all
          (fun s ->
            s.sapplied = first.sapplied
            && s.sstore = first.sstore
            && ((not settle) || s.sclock = first.sclock))
          rest
  in
  let down_at_end =
    Array.to_list nodes
    |> List.filter_map (fun node -> if node.down then Some node.id else None)
  in
  let report = Checker.check execution in
  let clean =
    report.Checker.violations = []
    && List.for_all (fun (p, _) -> List.mem p down_at_end)
         report.Checker.lost
  in
  {
    execution;
    report;
    protocol_name = P.name;
    plan;
    recoveries = List.rev !recoveries;
    down_at_end;
    final_states;
    live_equal;
    clean;
    commits = !commits;
    snapshot_bytes = !snapshot_bytes;
    rolled_back_events = !rolled_back;
    ops_skipped_down = !ops_skipped;
    sync_requests = !sync_requests;
    sync_replies = !sync_replies;
    replayed_writes = !replayed_writes;
    stale_deliveries_dropped = !stale_dropped;
    aborted_payloads = !aborted;
    payloads_sent = Reliable_channel.payloads_sent channel;
    frames_sent = Network.messages_sent network;
    frames_dropped = Network.messages_dropped network;
    frames_partition_dropped = Network.messages_partition_dropped network;
    frames_crash_dropped = Network.messages_crash_dropped network;
    retransmissions = Reliable_channel.retransmissions channel;
    duplicates_discarded = Reliable_channel.duplicates_discarded channel;
    engine_steps = Engine.steps_executed engine;
    end_time = nowf ();
  }

let recovery_latency r =
  Option.map (fun t -> t -. r.recovered_at) r.caught_up_at

let pp_recovery ppf r =
  Format.fprintf ppf
    "p%d crash@%.1f recover@%.1f rolled_back=%d replayed=%d%s" (r.rproc + 1)
    r.crashed_at r.recovered_at r.rolled_back_events r.replayed
    (match recovery_latency r with
    | Some l -> Printf.sprintf " caught_up=+%.1f" l
    | None -> " never caught up")

let pp_outcome ppf o =
  Format.fprintf ppf
    "@[<v>%s fault campaign: %d recoveries, %d commits (%d bytes), %d \
     rolled-back events, sync %d req / %d replies, %d replayed writes, \
     %d aborted payloads, %d partition-dropped, %d crash-dropped \
     frames; live_equal=%b clean=%b t_end=%.1f@,%a@]"
    o.protocol_name
    (List.length o.recoveries)
    o.commits o.snapshot_bytes o.rolled_back_events o.sync_requests
    o.sync_replies o.replayed_writes o.aborted_payloads
    o.frames_partition_dropped o.frames_crash_dropped o.live_equal o.clean
    o.end_time
    (Format.pp_print_list pp_recovery)
    o.recoveries
