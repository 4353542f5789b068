module Dot = Dsm_vclock.Dot
module Sim_time = Dsm_sim.Sim_time
module Operation = Dsm_memory.Operation

type kind =
  | Send of { dot : Dot.t; var : int; value : int }
  | Receipt of { dot : Dot.t; src : int }
  | Blocked of { dot : Dot.t; waiting_for : Dot.t }
  | Apply of { dot : Dot.t; var : int; value : int; delayed : bool }
  | Skip of { dot : Dot.t }
  | Return of {
      var : int;
      value : Operation.value;
      read_from : Dot.t option;
    }

type event = { proc : int; time : Sim_time.t; kind : kind }

module Key = struct
  let seq_bits = 32
  let gen_bits = 14
  let replica_bits = 16
  let none = -1

  let[@inline never] too_wide d =
    invalid_arg
      (Printf.sprintf "Execution.Key.of_dot: %s does not fit a key"
         (Dot.to_string d))

  (* 16 + 14 + 32 bits: a key is never negative, so [none] is free *)
  let[@inline] of_dot (d : Dot.t) =
    let r = Dot.replica d and g = Dot.gen d and s = Dot.seq d in
    if r lsr replica_bits <> 0 || g lsr gen_bits <> 0 || s lsr seq_bits <> 0
    then too_wide d;
    (r lsl (gen_bits + seq_bits)) lor (g lsl seq_bits) lor s

  let[@inline] replica k = k lsr (gen_bits + seq_bits)
  let[@inline] gen k = (k lsr seq_bits) land ((1 lsl gen_bits) - 1)
  let[@inline] seq k = k land ((1 lsl seq_bits) - 1)
  let to_dot k = Dot.make_gen ~replica:(replica k) ~gen:(gen k) ~seq:(seq k)
end

(* Event codes, in the low bits of the [meta] column; above them sits
   the event's global sequence number. [flag] marks a delayed [Apply]
   and a [Return] that read a value (not ⊥). *)
let c_send = 0
let c_receipt = 1
let c_blocked = 2
let c_apply = 3
let c_skip = 4
let c_return = 5
let code_mask = 7
let flag = 8
let meta_bits = 4

(* One chunk of a process's columns. Which event field each int column
   holds depends on the code:

   {v
   code     dot               a                   b
   Send     dot               var                 value
   Receipt  dot               src                 -
   Blocked  dot               waiting_for's key   -
   Apply    dot               var                 value
   Skip     dot               -                   -
   Return   read_from's key   var                 value (flag set)
            or Key.none
   v} *)
type chunk = {
  meta : int array;  (* global sequence number lsl meta_bits lor code *)
  time : Float.Array.t;
  dot : int array;
  a : int array;
  b : int array;
}

let chunk_bits = 9
let chunk_size = 1 lsl chunk_bits
let chunk_mask = chunk_size - 1
let first_capacity = 32

let new_chunk cap =
  {
    meta = Array.make cap 0;
    time = Float.Array.create cap;
    dot = Array.make cap 0;
    a = Array.make cap 0;
    b = Array.make cap 0;
  }

(* One process's event sequence: event [i] (counted from the first ever
   recorded here) lives in chunk number [i lsr chunk_bits], which is
   [spine.(i lsr chunk_bits - first)]. Chunk 0 starts with room for
   [first_capacity] events, so a short log stays small, and is then
   copied once into a full chunk; every later chunk is allocated full,
   so growth wastes less than one chunk and never copies again. A full
   chunk's arrays are too large for the minor heap: they are allocated
   in the major heap directly, and the minor collector never copies
   them. *)
type plog = {
  mutable spine : chunk array;
  mutable first : int;  (* chunk number of [spine.(0)] *)
  mutable used : int;  (* chunks in [spine] *)
  mutable tail : chunk;  (* [spine.(used - 1)], written next *)
  mutable fill : int;  (* events in [tail] *)
  mutable len : int;  (* events ever recorded here *)
  mutable lo : int;  (* first retained event *)
  mutable spare : chunk option;  (* a chunk the ring let go, for reuse *)
}

type t = {
  n : int;
  m : int;
  logs : plog array;
  limit : int;  (* ring capacity, [max_int] when unbounded *)
  mutable total : int;  (* events ever recorded, all processes *)
}

let new_plog () =
  let tail = new_chunk first_capacity in
  {
    spine = [| tail |];
    first = 0;
    used = 1;
    tail;
    fill = 0;
    len = 0;
    lo = 0;
    spare = None;
  }

let create ?capacity_limit ~n ~m () =
  if n <= 0 then invalid_arg "Execution.create: n must be positive";
  if m <= 0 then invalid_arg "Execution.create: m must be positive";
  let limit =
    match capacity_limit with
    | None -> max_int
    | Some c when c <= 0 ->
        invalid_arg "Execution.create: capacity_limit must be positive"
    | Some c -> c
  in
  { n; m; logs = Array.init n (fun _ -> new_plog ()); limit; total = 0 }

let n_processes t = t.n
let n_variables t = t.m

(* The global order keeps the last [limit] events, those numbered from
   [global_floor]. Each of them is followed by fewer than [limit] events
   in all, so by fewer than [limit] at its own process: the per-process
   windows hold the whole global window. *)
let global_floor t = if t.total > t.limit then t.total - t.limit else 0
let dropped_events t = global_floor t
let event_count t = t.total - global_floor t

let[@inline never] bad_proc fn =
  invalid_arg ("Execution." ^ fn ^ ": process id out of range")

let check_proc t fn proc = if proc < 0 || proc >= t.n then bad_proc fn

(* ---- recording ------------------------------------------------------ *)

let extend l =
  let cap = Array.length l.tail.dot in
  if cap < chunk_size then begin
    let c = new_chunk chunk_size in
    Array.blit l.tail.meta 0 c.meta 0 cap;
    Float.Array.blit l.tail.time 0 c.time 0 cap;
    Array.blit l.tail.dot 0 c.dot 0 cap;
    Array.blit l.tail.a 0 c.a 0 cap;
    Array.blit l.tail.b 0 c.b 0 cap;
    l.spine.(l.used - 1) <- c;
    l.tail <- c
  end
  else begin
    let c =
      match l.spare with
      | Some c ->
          l.spare <- None;
          c
      | None -> new_chunk chunk_size
    in
    if l.used = Array.length l.spine then begin
      let spine = Array.make (2 * l.used) c in
      Array.blit l.spine 0 spine 0 l.used;
      l.spine <- spine
    end;
    l.spine.(l.used) <- c;
    l.used <- l.used + 1;
    l.tail <- c;
    l.fill <- 0
  end

(* ring: keep the last [limit] events, and hand a chunk that fell wholly
   out of the window to the next [extend] *)
let evict t l =
  l.lo <- l.len - t.limit;
  while l.lo >= (l.first + 1) lsl chunk_bits do
    l.spare <- Some l.spine.(0);
    Array.blit l.spine 1 l.spine 0 (l.used - 1);
    l.used <- l.used - 1;
    l.first <- l.first + 1
  done

let[@inline] push t proc time code key a b =
  if proc < 0 || proc >= t.n then bad_proc "record";
  let l = Array.unsafe_get t.logs proc in
  if l.fill = Array.length l.tail.dot then extend l;
  let c = l.tail and j = l.fill in
  Array.unsafe_set c.meta j ((t.total lsl meta_bits) lor code);
  Float.Array.unsafe_set c.time j time;
  Array.unsafe_set c.dot j key;
  Array.unsafe_set c.a j a;
  Array.unsafe_set c.b j b;
  l.fill <- j + 1;
  l.len <- l.len + 1;
  t.total <- t.total + 1;
  if l.len - l.lo > t.limit then evict t l

let[@inline] record_send t ~proc ~time dot ~var ~value =
  push t proc (Sim_time.to_float time) c_send (Key.of_dot dot) var value

let[@inline] record_receipt t ~proc ~time dot ~src =
  push t proc (Sim_time.to_float time) c_receipt (Key.of_dot dot) src 0

let[@inline] record_blocked t ~proc ~time dot ~waiting_for =
  push t proc (Sim_time.to_float time) c_blocked (Key.of_dot dot)
    (Key.of_dot waiting_for) 0

let[@inline] record_apply t ~proc ~time dot ~var ~value ~delayed =
  push t proc (Sim_time.to_float time)
    (if delayed then c_apply lor flag else c_apply)
    (Key.of_dot dot) var value

let[@inline] record_skip t ~proc ~time dot =
  push t proc (Sim_time.to_float time) c_skip (Key.of_dot dot) 0 0

let[@inline] record_return t ~proc ~time ~var ~value ~read_from =
  let key = match read_from with None -> Key.none | Some d -> Key.of_dot d in
  match (value : Operation.value) with
  | Bot -> push t proc (Sim_time.to_float time) c_return key var 0
  | Val v ->
      push t proc (Sim_time.to_float time) (c_return lor flag) key var v

let record t ~proc ~time = function
  | Send { dot; var; value } -> record_send t ~proc ~time dot ~var ~value
  | Receipt { dot; src } -> record_receipt t ~proc ~time dot ~src
  | Blocked { dot; waiting_for } ->
      record_blocked t ~proc ~time dot ~waiting_for
  | Apply { dot; var; value; delayed } ->
      record_apply t ~proc ~time dot ~var ~value ~delayed
  | Skip { dot } -> record_skip t ~proc ~time dot
  | Return { var; value; read_from } ->
      record_return t ~proc ~time ~var ~value ~read_from

(* ---- reading in place ----------------------------------------------- *)

let[@inline] chunk_of l i =
  Array.unsafe_get l.spine ((i lsr chunk_bits) - l.first)

(* [dot] and [time] turn a key and a time into the record's values:
   fresh ones for a single record, shared ones for a list *)
let rebuild ~dot ~time ~proc c j =
  let meta = c.meta.(j) and key = c.dot.(j) and a = c.a.(j) and b = c.b.(j) in
  let kind =
    match meta land code_mask with
    | 0 -> Send { dot = dot key; var = a; value = b }
    | 1 -> Receipt { dot = dot key; src = a }
    | 2 -> Blocked { dot = dot key; waiting_for = dot a }
    | 3 ->
        Apply
          { dot = dot key; var = a; value = b; delayed = meta land flag <> 0 }
    | 4 -> Skip { dot = dot key }
    | _ ->
        Return
          {
            var = a;
            value = (if meta land flag <> 0 then Operation.Val b else Bot);
            read_from = (if key < 0 then None else Some (dot key));
          }
  in
  { proc; time = time (Float.Array.get c.time j); kind }

(* The process of each event in the global window, in global order, and
   where each process's share of that window starts: it is a suffix of
   the process's own window. *)
let global_order t =
  let floor = global_floor t in
  let order = Array.make (t.total - floor) 0 in
  let g_at l i = (chunk_of l i).meta.(i land chunk_mask) lsr meta_bits in
  let start =
    Array.mapi
      (fun p l ->
        let i = ref l.len in
        while !i > l.lo && g_at l (!i - 1) >= floor do
          decr i;
          order.(g_at l !i - floor) <- p
        done;
        !i)
      t.logs
  in
  (order, start)

module Cursor = struct
  type log = t
  type tag = Send | Receipt | Blocked | Apply | Skip | Return

  type t = {
    logs : plog array;
    mutable proc : int;
    mutable log : plog;
    mutable i : int;  (* the current event's index in [log] *)
    mutable ch : chunk;  (* the chunk holding it *)
    stop : int;  (* process cursor: end of the window *)
    order : int array;  (* global cursor: process of each global event *)
    mutable k : int;  (* global cursor: index in [order] *)
    next_i : int array;  (* global cursor: next index at each process *)
  }

  let of_process (t : log) proc =
    check_proc t "Cursor.of_process" proc;
    let l = t.logs.(proc) in
    {
      logs = t.logs;
      proc;
      log = l;
      i = l.lo - 1;
      ch = l.tail;
      stop = l.len;
      order = [||];
      k = -1;
      next_i = [||];
    }

  let global (t : log) =
    let order, next_i = global_order t in
    {
      logs = t.logs;
      proc = 0;
      log = t.logs.(0);
      i = -1;
      ch = t.logs.(0).tail;
      stop = 0;
      order;
      k = -1;
      next_i;
    }

  let next c =
    if Array.length c.next_i = 0 then begin
      let i = c.i + 1 in
      c.i <- i;
      if i >= c.stop then false
      else begin
        if i land chunk_mask = 0 || i = c.log.lo then c.ch <- chunk_of c.log i;
        true
      end
    end
    else begin
      let k = c.k + 1 in
      c.k <- k;
      if k >= Array.length c.order then false
      else begin
        let p = Array.unsafe_get c.order k in
        let l = Array.unsafe_get c.logs p in
        let i = Array.unsafe_get c.next_i p in
        Array.unsafe_set c.next_i p (i + 1);
        c.proc <- p;
        c.log <- l;
        c.i <- i;
        c.ch <- chunk_of l i;
        true
      end
    end

  let[@inline] j c = c.i land chunk_mask
  let[@inline] meta c = Array.unsafe_get c.ch.meta (j c)
  let[@inline] proc c = c.proc
  let[@inline] pos c = c.i - c.log.lo

  let[@inline] tag c =
    match meta c land code_mask with
    | 0 -> Send
    | 1 -> Receipt
    | 2 -> Blocked
    | 3 -> Apply
    | 4 -> Skip
    | _ -> Return

  let[@inline] delayed c = meta c land flag <> 0
  let[@inline] time c = Float.Array.unsafe_get c.ch.time (j c)
  let[@inline] key c = Array.unsafe_get c.ch.dot (j c)
  let[@inline] var c = Array.unsafe_get c.ch.a (j c)
  let[@inline] waiting_for c = Array.unsafe_get c.ch.a (j c)
  let[@inline] value c = Array.unsafe_get c.ch.b (j c)

  let returned c =
    if meta c land flag <> 0 then Operation.Val (value c) else Operation.Bot

  let event c =
    rebuild ~dot:Key.to_dot ~time:Sim_time.of_float ~proc:c.proc c.ch (j c)
end

(* ---- records, for callers that want them ---------------------------- *)

(* A list of records keeps one copy of each dot, and one time for a run
   of events at the same instant; it is built from its last event, so
   no reversed copy is ever alive. *)
let sharing () =
  let dots = Hashtbl.create 256 and last = ref Sim_time.zero in
  let dot k =
    match Hashtbl.find dots k with
    | d -> d
    | exception Not_found ->
        let d = Key.to_dot k in
        Hashtbl.add dots k d;
        d
  in
  let time f =
    if Sim_time.to_float !last <> f then last := Sim_time.of_float f;
    !last
  in
  rebuild ~dot ~time

let events t =
  let order, _ = global_order t in
  let prev = Array.map (fun l -> l.len - 1) t.logs in
  let rebuild = sharing () in
  let acc = ref [] in
  for k = Array.length order - 1 downto 0 do
    let p = order.(k) in
    let i = prev.(p) in
    prev.(p) <- i - 1;
    acc := rebuild ~proc:p (chunk_of t.logs.(p) i) (i land chunk_mask) :: !acc
  done;
  !acc

let events_of t proc =
  check_proc t "events_of" proc;
  let l = t.logs.(proc) in
  let rebuild = sharing () in
  let acc = ref [] in
  for i = l.len - 1 downto l.lo do
    acc := rebuild ~proc (chunk_of l i) (i land chunk_mask) :: !acc
  done;
  !acc

let iteri_of t proc f =
  check_proc t "iteri_of" proc;
  let c = Cursor.of_process t proc in
  while Cursor.next c do
    f (Cursor.pos c) (Cursor.event c)
  done

(* ---- queries -------------------------------------------------------- *)

let apply_order t proc =
  check_proc t "apply_order" proc;
  let c = Cursor.of_process t proc in
  let acc = ref [] in
  while Cursor.next c do
    if Cursor.tag c = Cursor.Apply then
      acc := Key.to_dot (Cursor.key c) :: !acc
  done;
  List.rev !acc

let position_of t ~proc tag dot =
  check_proc t "position" proc;
  match Key.of_dot dot with
  | exception Invalid_argument _ -> None (* never recorded *)
  | key ->
      let c = Cursor.of_process t proc in
      let rec go () =
        if not (Cursor.next c) then None
        else if Cursor.tag c = tag && Cursor.key c = key then
          Some (Cursor.pos c)
        else go ()
      in
      go ()

let apply_position t ~proc ~dot = position_of t ~proc Cursor.Apply dot
let receipt_position t ~proc ~dot = position_of t ~proc Cursor.Receipt dot
let skip_position t ~proc ~dot = position_of t ~proc Cursor.Skip dot

let time_at t ~proc pos =
  let l = t.logs.(proc) in
  let i = l.lo + pos in
  Sim_time.of_float (Float.Array.get (chunk_of l i).time (i land chunk_mask))

let apply_time t ~proc ~dot =
  Option.map (time_at t ~proc) (apply_position t ~proc ~dot)

let receipt_time t ~proc ~dot =
  Option.map (time_at t ~proc) (receipt_position t ~proc ~dot)

(* events of the global window whose meta satisfies [p] *)
let count_global t p =
  let floor = global_floor t in
  let n = ref 0 in
  Array.iter
    (fun l ->
      for i = l.lo to l.len - 1 do
        let meta = (chunk_of l i).meta.(i land chunk_mask) in
        if meta lsr meta_bits >= floor && p meta then incr n
      done)
    t.logs;
  !n

let is_apply meta = meta land code_mask = c_apply
let is_delayed meta = meta land (code_mask lor flag) = c_apply lor flag
let delay_count t = count_global t is_delayed
let apply_count t = count_global t is_apply
let skip_count t = count_global t (fun meta -> meta land code_mask = c_skip)

let blocked_count t =
  count_global t (fun meta -> meta land code_mask = c_blocked)

let delay_count_at t proc =
  check_proc t "delay_count_at" proc;
  let c = Cursor.of_process t proc in
  let n = ref 0 in
  while Cursor.next c do
    if Cursor.tag c = Cursor.Apply && Cursor.delayed c then incr n
  done;
  !n

let delayed_applies t =
  let c = Cursor.global t in
  let acc = ref [] in
  while Cursor.next c do
    if Cursor.tag c = Cursor.Apply && Cursor.delayed c then
      acc := (Cursor.proc c, Key.to_dot (Cursor.key c)) :: !acc
  done;
  List.rev !acc

let blocked_events t =
  let c = Cursor.global t in
  let acc = ref [] in
  while Cursor.next c do
    if Cursor.tag c = Cursor.Blocked then
      acc :=
        ( Cursor.proc c,
          Key.to_dot (Cursor.key c),
          Key.to_dot (Cursor.waiting_for c),
          Sim_time.of_float (Cursor.time c) )
        :: !acc
  done;
  List.rev !acc

let writes t =
  (* own-apply at the issuer is the canonical record of a write: every
     protocol applies its own writes immediately, even those that
     writing semantics later hides from other processes *)
  let c = Cursor.global t in
  let acc = ref [] in
  while Cursor.next c do
    if Cursor.tag c = Cursor.Apply && Key.replica (Cursor.key c) = Cursor.proc c
    then
      acc := (Key.to_dot (Cursor.key c), Cursor.var c, Cursor.value c) :: !acc
  done;
  (* newest first into the stable sort: repeated dots stay newest first *)
  List.sort (fun (a, _, _) (b, _, _) -> Dot.compare a b) !acc

let to_history ?floor t =
  let base proc =
    match floor with
    | None -> 0
    | Some f -> Dsm_vclock.Vector_clock.get0 f proc
  in
  let locals =
    List.init t.n (fun proc ->
        let lh = Dsm_memory.Local_history.create ~base:(base proc) ~proc () in
        let c = Cursor.of_process t proc in
        while Cursor.next c do
          match Cursor.tag c with
          | Cursor.Apply when Key.replica (Cursor.key c) = proc ->
              (* dot passthrough keeps the occupancy generation on the
                 recorded write; the builder still enforces that own
                 applies arrive in sequence order from the base *)
              ignore
                (Dsm_memory.Local_history.add_write
                   ~dot:(Key.to_dot (Cursor.key c))
                   lh ~var:(Cursor.var c) ~value:(Cursor.value c))
          | Cursor.Return ->
              let k = Cursor.key c in
              ignore
                (Dsm_memory.Local_history.add_read lh ~var:(Cursor.var c)
                   ~value:(Cursor.returned c)
                   ~read_from:(if k < 0 then None else Some (Key.to_dot k)))
          | Cursor.(Apply | Send | Receipt | Blocked | Skip) -> ()
        done;
        lh)
  in
  Dsm_memory.History.of_locals locals

let pp_kind_at proc ppf kind =
  let p = proc + 1 in
  match kind with
  | Send { dot; var; value } ->
      Format.fprintf ppf "send_%d(%a:x%d:=%d)" p Dot.pp dot (var + 1) value
  | Receipt { dot; _ } -> Format.fprintf ppf "receipt_%d(%a)" p Dot.pp dot
  | Blocked { dot; waiting_for } ->
      Format.fprintf ppf "blocked_%d(%a<-%a)" p Dot.pp dot Dot.pp waiting_for
  | Apply { dot; delayed; _ } ->
      Format.fprintf ppf "apply_%d(%a)%s" p Dot.pp dot
        (if delayed then "*" else "")
  | Skip { dot } -> Format.fprintf ppf "skip_%d(%a)" p Dot.pp dot
  | Return { var; value; _ } ->
      Format.fprintf ppf "return_%d(x%d, %a)" p (var + 1)
        Operation.pp_value value

let pp_event ppf (e : event) =
  Format.fprintf ppf "[%a] %a" Sim_time.pp e.time (pp_kind_at e.proc) e.kind

let pp_process t proc ppf () =
  let evs = events_of t proc in
  Format.fprintf ppf "@[<hov 2>";
  List.iteri
    (fun i e ->
      if i > 0 then Format.fprintf ppf " <%d@ " (proc + 1);
      pp_kind_at proc ppf e.kind)
    evs;
  Format.fprintf ppf "@]"

let apply_latencies t =
  (* single pass per process: receipts stamp a table, applies consume it *)
  let out = ref [] in
  let receipt_at = Hashtbl.create 64 in
  for proc = 0 to t.n - 1 do
    Hashtbl.reset receipt_at;
    let c = Cursor.of_process t proc in
    while Cursor.next c do
      match Cursor.tag c with
      | Cursor.Receipt ->
          Hashtbl.replace receipt_at (Cursor.key c) (Cursor.time c)
      | Cursor.Apply -> (
          match Hashtbl.find_opt receipt_at (Cursor.key c) with
          | Some r -> out := (Cursor.time c -. r) :: !out
          | None -> () (* own write: no receipt *))
      | Cursor.(Send | Blocked | Skip | Return) -> ()
    done
  done;
  List.rev !out
