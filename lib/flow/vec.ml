(* Both arrays have length [Field.count] by invariant, so [unsafe_get] is
   in bounds. *)
let rec equal_from a b i =
  i >= Field.count
  || Int.equal (Array.unsafe_get a i) (Array.unsafe_get b i)
     && equal_from a b (i + 1)

let equal a b = a == b || equal_from a b 0

(* [Hashtbl.Make] and the cuckoo table pick buckets by the hash's low bits,
   and masked keys (a /16 or /24 address prefix, a prefix-shaped mask) have
   their low bits zeroed.  FNV's multiply only carries bits upwards, so
   without a final mix that structure survives into the low bits of the
   hash and such keys pile into a few buckets.  The finalizer folds the
   high half down, multiplies, and folds again. *)
let mix h =
  let h = h lxor (h lsr 32) in
  let h = h * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 29)) land max_int

let rec hash_from t i h =
  if i >= Field.count then mix h
  else hash_from t (i + 1) ((h lxor Array.unsafe_get t i) * 0x100000001b3)

let hash t = hash_from t 0 0x3bf29ce484222325
