module Dot = Dsm_vclock.Dot
module Operation = Dsm_memory.Operation
module History = Dsm_memory.History
module Session_guarantees = Dsm_memory.Session_guarantees
module Rng = Dsm_sim.Rng

type placement = Sticky | Random | Nearest

let placement_names = [ "sticky"; "random"; "nearest" ]

let placement_of_string = function
  | "sticky" -> Some Sticky
  | "random" -> Some Random
  | "nearest" -> Some Nearest
  | _ -> None

let placement_to_string = function
  | Sticky -> "sticky"
  | Random -> "random"
  | Nearest -> "nearest"

type config = {
  count : int;
  placement : placement;
  ops_per_session : int;
  write_ratio : float;
  think_mean : float;
  rpc_timeout : float;
  backoff : float;
  backoff_cap : float;
  max_retries : int;
  handoff : bool;
  seed : int;
}

let default_config ~count =
  {
    count;
    placement = Sticky;
    ops_per_session = 20;
    write_ratio = 0.5;
    think_mean = 10.;
    rpc_timeout = 150.;
    backoff = 5.;
    backoff_cap = 80.;
    max_retries = 10;
    handoff = true;
    seed = 1;
  }

let validate_config c =
  if c.count < 1 then invalid_arg "Session_tier: need at least one session";
  if c.ops_per_session < 1 then
    invalid_arg "Session_tier: need at least one op per session";
  if c.write_ratio < 0. || c.write_ratio > 1. then
    invalid_arg "Session_tier: write_ratio outside [0,1]";
  if c.think_mean <= 0. then invalid_arg "Session_tier: think_mean <= 0";
  if c.rpc_timeout <= 0. then invalid_arg "Session_tier: rpc_timeout <= 0";
  if c.backoff <= 0. || c.backoff_cap < c.backoff then
    invalid_arg "Session_tier: need 0 < backoff <= backoff_cap";
  if c.max_retries < 1 then invalid_arg "Session_tier: max_retries < 1"

(* op-id value encoding: disjoint from Sim_run.write_value's
   proc*1_000_000+seq range (procs are slot ids, far below 1000) *)
let value_base = 1_000_000_000
let ops_radix = 100_000

let op_value ~sid ~op =
  if op <= 0 || op >= ops_radix then
    invalid_arg "Session_tier.op_value: op outside [1, 100_000)";
  value_base + (sid * ops_radix) + op

let decode_value v =
  if v >= value_base then
    let r = v - value_base in
    Some (r / ops_radix, r mod ops_radix)
  else None

type op_kind = Op_write | Op_read

type outcome_kind =
  | Ok_served
  | Ok_dedup
  | Deg_blocked
  | Deg_in_doubt
  | Deg_unreachable

type op_span = {
  osid : int;
  oseq : int;
  okind : op_kind;
  ovar : int;
  oissued_at : float;
  mutable oattempts : int;
  mutable owaiting_for : Dot.t option;
  mutable oclaim_home : int;
  mutable oclaim_at : float;
  mutable odot : Dot.t option;
  mutable oserved_by : int;
  mutable oserved_at : float;
  mutable odone_at : float option;
  mutable ooutcome : outcome_kind option;
}

type migration = {
  msid : int;
  mat : float;
  mfrom : int;
  mto : int;
  mcarried : bool;
}

type session = {
  sid : int;
  mutable home : int option;
  mutable served_home : int option;
  dep : int array;
  mutable acked : Operation.t list;
  mutable reads_done : int;
  mutable op_seq : int;
}

let make_session ~sid ~universe =
  {
    sid;
    home = None;
    served_home = None;
    dep = Array.make universe 0;
    acked = [];
    reads_done = 0;
    op_seq = 0;
  }

let choose_home placement ~sid ~universe ~rng ~active ~current =
  match active with
  | [] -> None
  | active -> (
      match placement with
      | Random -> Some (List.nth active (Rng.int rng (List.length active)))
      | Sticky -> (
          match current with
          | Some h when List.mem h active -> Some h
          | _ ->
              (* failover: the cyclically next active slot after the old
                 home (or after the session's anchor slot when it never
                 had one), then stick to it *)
              let anchor =
                match current with
                | Some h -> h
                | None -> sid mod universe
              in
              Some
                (match List.filter (fun r -> r >= anchor) active with
                | r :: _ -> r
                | [] -> List.hd active))
      | Nearest ->
          (* static preference ring per session: distance measured
             cyclically from the session's anchor slot — fails over to
             the nearest active replica and fails back when a nearer
             one rejoins *)
          let anchor = sid mod universe in
          let dist r = (r - anchor + universe) mod universe in
          Some
            (List.fold_left
               (fun best r ->
                 match best with
                 | None -> Some r
                 | Some b -> if dist r < dist b then Some r else Some b)
               None active
            |> Option.get))

let backoff_delay cfg ~rng ~attempt =
  let raw = cfg.backoff *. (2. ** float_of_int (min attempt 16)) in
  Float.min cfg.backoff_cap raw *. (0.5 +. Rng.float rng)

type report = {
  cfg : config;
  streams : (int * Operation.t list) list;
  spans : op_span list;
  migrations : migration list;
  ops_done : int;
  writes_done : int;
  reads_done : int;
  retries : int;
  blocked_rejections : int;
  unavailable_rejections : int;
  dedup_hits : int;
  replies_lost : int;
  degraded : op_span list;
  duplicate_writes : int;
  violations : Session_guarantees.violation list;
  write_latencies : float list;
  read_latencies : float list;
}

let clean r = r.violations = [] && r.duplicate_writes = 0

(* ordering witness from the recorded execution: d1 is causally before
   d2 when d2's own issuer applied d1 before applying d2 — the causal
   past a replica-issued write inherits, which is exactly what the
   session-vector gate guarantees across a handoff.  One pass over the
   events builds, per process, a dot -> apply-index table (dots as
   {!Execution.Key}s). *)
let apply_index execution =
  Array.init (Execution.n_processes execution) (fun proc ->
      let tbl = Hashtbl.create 256 in
      let c = Execution.Cursor.of_process execution proc in
      let next = ref 0 in
      while Execution.Cursor.next c do
        if Execution.Cursor.tag c = Apply then begin
          let key = Execution.Cursor.key c in
          if not (Hashtbl.mem tbl key) then Hashtbl.add tbl key !next;
          incr next
        end
      done;
      tbl)

let audit ~execution ~history ?(spans = [])
    ?(home_crashed_after = fun ~home:_ ~t:_ -> false) ~streams () =
  let co = Dsm_memory.Causal_order.compute history in
  let idx = apply_index execution in
  let also_precedes d1 d2 =
    let issuer = Dot.replica d2 in
    issuer < Array.length idx
    &&
    let at d = Hashtbl.find_opt idx.(issuer) (Execution.Key.of_dot d) in
    match (at d1, at d2) with Some i1, Some i2 -> i1 < i2 | _ -> false
  in
  let value_violations =
    Session_guarantees.check_streams ~also_precedes co streams
  in
  (* Terry's original write-set RYW: the replica serving a session's
     read must already hold the session's own last write on that
     variable.  Value comparison cannot see the miss when the serving
     replica returns a *concurrent* write — the dominant anomaly of a
     dropped handoff — but the execution's apply record can.  Sound
     under the session-vector gate: a gated read executes only after
     the home applied every dot of the session vector, own writes
     included. *)
  let coverage = ref [] in
  let own_last : (int * int, Dot.t) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun sp ->
      (* spans are per-session in op order: op [n+1] is issued only
         after op [n] resolved *)
      match (sp.okind, sp.ooutcome) with
      | Op_write, Some (Ok_served | Ok_dedup) -> (
          match sp.odot with
          | Some dot -> Hashtbl.replace own_last (sp.osid, sp.ovar) dot
          | None -> ())
      | Op_read, Some Ok_served -> (
          match Hashtbl.find_opt own_last (sp.osid, sp.ovar) with
          | None -> ()
          | Some own ->
              let h = sp.oserved_by in
              let returned_own =
                match sp.odot with
                | Some src -> Dot.equal src own
                | None -> false
              in
              let applied_before =
                match Execution.apply_time execution ~proc:h ~dot:own with
                | Some t ->
                    Dsm_sim.Sim_time.to_float t <= sp.oserved_at +. 1e-6
                | None -> false
              in
              if
                h >= 0 && sp.oserved_at >= 0. && (not returned_own)
                && (not applied_before)
                && not (home_crashed_after ~home:h ~t:sp.oserved_at)
              then
                coverage :=
                  {
                    Session_guarantees.guarantee =
                      Session_guarantees.Read_your_writes;
                    proc = sp.osid;
                    culprit = sp.odot;
                    anchor = own;
                    detail =
                      Format.asprintf
                        "read of x%d served by p%d which had not applied \
                         own %a (write-set coverage)"
                        (sp.ovar + 1) (h + 1) Dot.pp own;
                  }
                  :: !coverage)
      | _ -> ())
    spans;
  value_violations @ List.rev !coverage

let duplicate_writes history =
  let seen : (int, Dot.t) Hashtbl.t = Hashtbl.create 64 in
  let dups = ref 0 in
  List.iter
    (fun (w : Operation.write) ->
      match decode_value w.Operation.wvalue with
      | None -> ()
      | Some _ -> (
          match Hashtbl.find_opt seen w.Operation.wvalue with
          | None -> Hashtbl.add seen w.Operation.wvalue w.Operation.wdot
          | Some dot ->
              if not (Dot.equal dot w.Operation.wdot) then incr dups))
    (History.writes history);
  !dups

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let percentile xs p =
  match xs with
  | [] -> 0.
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      let i =
        int_of_float (Float.round (p *. float_of_int (n - 1)))
      in
      a.(max 0 (min (n - 1) i))

let pp_outcome_kind ppf = function
  | Ok_served -> Format.pp_print_string ppf "served"
  | Ok_dedup -> Format.pp_print_string ppf "dedup-resolved"
  | Deg_blocked -> Format.pp_print_string ppf "degraded:blocked"
  | Deg_in_doubt -> Format.pp_print_string ppf "degraded:in-doubt"
  | Deg_unreachable -> Format.pp_print_string ppf "degraded:unreachable"

let pp_op_kind ppf = function
  | Op_write -> Format.pp_print_string ppf "write"
  | Op_read -> Format.pp_print_string ppf "read"

let pp_op_span ppf s =
  Format.fprintf ppf "s%d#%d %a(x%d)@%.1f attempts=%d %a%s%s" s.osid s.oseq
    pp_op_kind s.okind (s.ovar + 1) s.oissued_at s.oattempts
    (Format.pp_print_option
       ~none:(fun ppf () -> Format.pp_print_string ppf "open")
       pp_outcome_kind)
    s.ooutcome
    (match s.odot with
    | Some d -> Format.asprintf " dot=%a" Dot.pp d
    | None -> "")
    (match s.owaiting_for with
    | Some d ->
        Format.asprintf " waiting_for=%a@p%d" Dot.pp d (s.oclaim_home + 1)
    | None -> "")

let pp_migration ppf m =
  Format.fprintf ppf "s%d p%d->p%d@%.1f%s" m.msid (m.mfrom + 1) (m.mto + 1)
    m.mat
    (if m.mcarried then "" else " [VECTOR DROPPED]")

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>session tier: %d sessions (%s%s), %d/%d ops served (%d writes / \
     %d reads), %d migrations, %d retries (%d blocked / %d unavailable), \
     %d dedup hits, %d replies lost, %d degraded, %d duplicate writes, %d \
     session-guarantee violations"
    r.cfg.count
    (placement_to_string r.cfg.placement)
    (if r.cfg.handoff then "" else ", handoff OFF")
    r.ops_done
    (r.cfg.count * r.cfg.ops_per_session)
    r.writes_done r.reads_done
    (List.length r.migrations)
    r.retries r.blocked_rejections r.unavailable_rejections r.dedup_hits
    r.replies_lost
    (List.length r.degraded)
    r.duplicate_writes
    (List.length r.violations);
  if r.write_latencies <> [] then
    Format.fprintf ppf "@,write latency: mean=%.1f p95=%.1f"
      (mean r.write_latencies)
      (percentile r.write_latencies 0.95);
  if r.read_latencies <> [] then
    Format.fprintf ppf "@,read latency: mean=%.1f p95=%.1f"
      (mean r.read_latencies)
      (percentile r.read_latencies 0.95);
  List.iter (fun m -> Format.fprintf ppf "@,%a" pp_migration m) r.migrations;
  List.iter (fun s -> Format.fprintf ppf "@,%a" pp_op_span s) r.degraded;
  List.iter
    (fun v ->
      Format.fprintf ppf "@,session %a"
        Session_guarantees.pp_violation v)
    r.violations;
  Format.fprintf ppf "@]"

(* explain: join every claimed blocker against the checker's ground
   truth.  A claim "waiting_for d at home h at time t" is honest when h
   really had not applied d by t. *)
let pp_explain ~execution ppf r =
  let claim_honest s =
    match s.owaiting_for with
    | None -> None
    | Some d -> (
        match
          Execution.apply_time execution ~proc:s.oclaim_home ~dot:d
        with
        | None -> Some true (* never applied there: genuinely missing *)
        | Some t ->
            Some (Dsm_sim.Sim_time.to_float t > s.oclaim_at))
  in
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (sid, ops) ->
      let spans = List.filter (fun s -> s.osid = sid) r.spans in
      let migs = List.filter (fun m -> m.msid = sid) r.migrations in
      let claims = List.filter (fun s -> s.owaiting_for <> None) spans in
      let degraded = List.filter (fun s -> s.osid = sid) r.degraded in
      Format.fprintf ppf "session s%d: %d ops acked, %d migrations%s@," sid
        (List.length ops) (List.length migs)
        (if degraded = [] then "" else
           Printf.sprintf ", %d degraded" (List.length degraded));
      List.iter
        (fun m -> Format.fprintf ppf "  migrated %a@," pp_migration m)
        migs;
      List.iter
        (fun s ->
          match (s.owaiting_for, claim_honest s) with
          | Some d, Some honest ->
              Format.fprintf ppf
                "  #%d claimed waiting_for=%a at p%d@%.1f — %s@," s.oseq
                Dot.pp d (s.oclaim_home + 1) s.oclaim_at
                (if honest then "ground truth agrees (unapplied there)"
                 else "CLAIM FALSE: already applied there")
          | _ -> ())
        claims;
      (* a violation names the session and the migration edge that
         caused it: the last migration at or before the offending op *)
      List.iter
        (fun (v : Session_guarantees.violation) ->
          if v.Session_guarantees.proc = sid then begin
            Format.fprintf ppf "  VIOLATION %a@," Session_guarantees.pp_violation v;
            let offender_at =
              (* issue time of the span carrying the culprit/anchor *)
              List.fold_left
                (fun acc s ->
                  let dots =
                    Option.to_list s.odot
                    @ Option.to_list v.Session_guarantees.culprit
                  in
                  match (s.odot, acc) with
                  | Some d, None
                    when List.exists (Dot.equal d) dots ->
                      Some s.oissued_at
                  | _ -> acc)
                None spans
            in
            match
              List.fold_left
                (fun acc m ->
                  match offender_at with
                  | Some t when m.mat <= t -> Some m
                  | None -> Some m
                  | Some _ -> acc)
                None migs
            with
            | Some m ->
                Format.fprintf ppf "    caused across edge %a@," pp_migration m
            | None -> ()
          end)
        r.violations)
    r.streams;
  Format.fprintf ppf "@]"
