(* The benchmark's own tracer: spans recorded around the calls it makes
   into each layer of the oracle, kept in memory and written out when
   the run ends.  A span's layer is the prefix of its name before the
   first dot ("explore.run" belongs to "explore"); spans the benchmark
   opens for its own loop ("pass", "program", "request") belong to
   "bench", whose self time is the unattributed share. *)

type span = {
  id : int;
  parent : int;  (* id of the enclosing span, -1 at the root *)
  group : int;  (* program or request the span works for, -1 for none *)
  name : string;
  start : float;
  stop : float;
}

type t = {
  on : bool;
  mutable next : int;
  mutable stack : int list;  (* ids of the open spans, innermost first *)
  mutable spans : span list;  (* completed, newest first *)
}

let create ~on = { on; next = 0; stack = []; spans = [] }
let enabled t = t.on
let current t = match t.stack with id :: _ -> id | [] -> -1

let fresh_id t =
  let id = t.next in
  t.next <- id + 1;
  id

(* [with_ t ~group name f] runs [f] inside a span; with tracing off it
   is [f ()] and nothing else *)
let with_ t ?(group = -1) name f =
  if not t.on then f ()
  else begin
    let id = fresh_id t and parent = current t in
    t.stack <- id :: t.stack;
    let start = Obs.Clock.now () in
    let finish () =
      let stop = Obs.Clock.now () in
      t.stack <- List.tl t.stack;
      t.spans <- { id; parent; group; name; start; stop } :: t.spans
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* A span whose duration the program measured itself (an [Obs] span,
   or a time a daemon response reports), laid out from [start] under
   [parent] (default: the innermost open span).  Returns the span's id
   and end, so that children and siblings reported in call order can be
   laid out after it. *)
let add_reported t ?parent ?(group = -1) ~start name dur =
  if t.on && dur > 0.0 then begin
    let id = fresh_id t in
    let parent = match parent with Some p -> p | None -> current t in
    t.spans <- { id; parent; group; name; start; stop = start +. dur } :: t.spans;
    (id, start +. dur)
  end
  else (-1, start)

let spans t = List.rev t.spans

(* the most recently closed span *)
let last t = match t.spans with s :: _ -> Some s | [] -> None

let layer name =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> "bench"

(* total length of the union of [intervals] *)
let union_length intervals =
  let sorted = List.sort compare intervals in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0.0, None) sorted
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total

(* Self time of every span: its duration minus the part of its interval
   that its children cover. *)
let self_times (spans : span list) : (span * float) list =
  let children = Hashtbl.create 64 in
  List.iter (fun s -> if s.parent >= 0 then Hashtbl.add children s.parent s) spans;
  List.map
    (fun s ->
      let covered =
        union_length
          (List.filter_map
             (fun c ->
               let a = Float.max c.start s.start and b = Float.min c.stop s.stop in
               if b > a then Some (a, b) else None)
             (Hashtbl.find_all children s.id))
      in
      (s, s.stop -. s.start -. covered))
    spans

(* Self time summed per layer, largest first. *)
let layer_self_times spans =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (s, self) ->
      let l = layer s.name in
      Hashtbl.replace tbl l (self +. Option.value ~default:0.0 (Hashtbl.find_opt tbl l)))
    (self_times spans);
  Hashtbl.fold (fun l v acc -> (l, v) :: acc) tbl []
  |> List.sort (fun (_, a) (_, b) -> Float.compare b a)

(* wall-clock covered by the root spans *)
let root_time spans =
  List.fold_left (fun acc s -> if s.parent < 0 then acc +. (s.stop -. s.start) else acc) 0.0 spans

let write_jsonl oc spans =
  let t0 = List.fold_left (fun m s -> Float.min m s.start) infinity spans in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"group\":%d,\"name\":%S,\"start\":%.9f,\"end\":%.9f}\n"
        s.id s.parent s.group s.name (s.start -. t0) (s.stop -. t0))
    spans
