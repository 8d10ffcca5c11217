(* Open addressing with linear probing over two flat arrays.  Slot [s] is
   empty iff [buckets.(s)] is [[]]; otherwise [buckets.(s)] is its bucket,
   which [find] hands back as stored, and [keys.(s)] is the key it was bound
   under: the caller's own flow, shared, not a masked copy (only its
   significant fields are ever read, under the mask).  The load stays at or
   below 1/2, so a probe always reaches an empty slot. *)
type 'a t = {
  fields : int array; (* indices of the mask's non-zero fields, ascending *)
  masks : int array; (* masks.(j) is the mask of field fields.(j) *)
  width : int; (* Array.length fields *)
  mutable keys : Flow.t array;
  mutable buckets : 'a list array;
  mutable count : int;
}

let initial_capacity = 8

let create mask =
  let bits = Mask.field_bits mask in
  let width = Gf_util.Bitops.popcount bits in
  let fields = Array.make width 0 and j = ref 0 in
  for i = 0 to Field.count - 1 do
    if bits land (1 lsl i) <> 0 then begin
      fields.(!j) <- i;
      incr j
    end
  done;
  {
    fields;
    masks = Array.map (fun i -> Mask.get mask (Field.of_index i)) fields;
    width;
    keys = Array.make initial_capacity Flow.zero;
    buckets = Array.make initial_capacity [];
    count = 0;
  }

let length t = t.count
let capacity t = Array.length t.buckets
let occupied = function [] -> false | _ :: _ -> true

(* The probe loops are top-level functions over [t] and the raw flow, so a
   probe allocates nothing (no closure; this build has no flambda), and they
   read only the mask's significant fields.  The hash is [Vec.hash]'s FNV-1a
   step and finalizer over those fields alone. *)
let fnv_basis = 0x3bf29ce484222325
let fnv_step h v = (h lxor v) * 0x100000001b3

(* The [j]-th significant field of [flow], under the mask. *)
let masked t (flow : int array) j =
  Array.unsafe_get flow (Array.unsafe_get t.fields j) land Array.unsafe_get t.masks j

let rec hash_flow t flow j h =
  if j >= t.width then Vec.mix h
  else hash_flow t flow (j + 1) (fnv_step h (masked t flow j))

(* The home slot of [key] at [t]'s current capacity. *)
let home t (key : Flow.t) =
  hash_flow t (key :> int array) 0 fnv_basis land (capacity t - 1)

let rec key_equal t flow key j =
  j >= t.width
  || (Int.equal (masked t key j) (masked t flow j) && key_equal t flow key (j + 1))

(* The slot holding [flow]'s key, or [lnot s] for the empty slot [s] where
   the probe stopped (where the key would go). *)
let rec probe t flow s =
  match Array.unsafe_get t.buckets s with
  | [] -> lnot s
  | _ :: _ ->
      if key_equal t flow (Array.unsafe_get t.keys s :> int array) 0 then s
      else probe t flow ((s + 1) land (capacity t - 1))

let slot_of t flow = probe t flow (hash_flow t flow 0 fnv_basis land (capacity t - 1))

let find t (flow : Flow.t) =
  let s = slot_of t (flow :> int array) in
  if s < 0 then [] else Array.unsafe_get t.buckets s

let set_slot t s key bucket =
  t.keys.(s) <- key;
  t.buckets.(s) <- bucket

let rec free_slot t s =
  if occupied t.buckets.(s) then free_slot t ((s + 1) land (capacity t - 1)) else s

let grow t =
  let keys = t.keys and buckets = t.buckets in
  let cap = 2 * Array.length buckets in
  t.keys <- Array.make cap Flow.zero;
  t.buckets <- Array.make cap [];
  Array.iteri
    (fun s bucket ->
      if occupied bucket then set_slot t (free_slot t (home t keys.(s))) keys.(s) bucket)
    buckets

(* Backward-shift deletion: walk the cluster after the hole and pull back
   every entry whose home slot does not lie cyclically in (hole, j], so
   every remaining key stays reachable from its home without crossing an
   empty slot, and no tombstone is left for later probes to skip. *)
let rec shift_back t hole j =
  let j = (j + 1) land (capacity t - 1) in
  if not (occupied t.buckets.(j)) then set_slot t hole Flow.zero []
  else
    let home = home t t.keys.(j) in
    let stays =
      if hole <= j then hole < home && home <= j else hole < home || home <= j
    in
    if stays then shift_back t hole j
    else begin
      set_slot t hole t.keys.(j) t.buckets.(j);
      shift_back t j j
    end

let replace t key bucket =
  let s = slot_of t (key : Flow.t :> int array) in
  match bucket with
  | [] ->
      if s >= 0 then begin
        shift_back t s s;
        t.count <- t.count - 1
      end
  | _ :: _ when s >= 0 -> t.buckets.(s) <- bucket
  | _ :: _ ->
      let s =
        if 2 * (t.count + 1) <= capacity t then lnot s
        else begin
          grow t;
          lnot (slot_of t (key :> int array))
        end
      in
      set_slot t s key bucket;
      t.count <- t.count + 1

let fold f t acc =
  Array.fold_left (fun acc b -> if occupied b then f b acc else acc) acc t.buckets

let check_invariants t =
  let m = capacity t - 1 in
  if 2 * t.count > m + 1 then failwith "Masked_tbl: load above 1/2";
  let live = ref 0 and wrapped = ref 0 in
  Array.iteri
    (fun s bucket ->
      if occupied bucket then begin
        incr live;
        let home = home t t.keys.(s) in
        let rec reachable i =
          i = s || (occupied t.buckets.(i) && reachable ((i + 1) land m))
        in
        if not (reachable home) then failwith "Masked_tbl: key unreachable from home";
        if home > s then incr wrapped
      end)
    t.buckets;
  if !live <> t.count then failwith "Masked_tbl: count mismatch";
  !wrapped
