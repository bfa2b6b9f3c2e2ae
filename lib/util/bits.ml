let is_pow2 x = x > 0 && x land (x - 1) = 0

let floor_log2 x =
  if x <= 0 then invalid_arg "Bits.floor_log2";
  let rec go acc x = if x <= 1 then acc else go (acc + 1) (x lsr 1) in
  go 0 x

let log2_exact x =
  if not (is_pow2 x) then invalid_arg "Bits.log2_exact";
  floor_log2 x

let bit i k = (i lsr k) land 1
let set_bit i k = i lor (1 lsl k)
let clear_bit i k = i land lnot (1 lsl k)

let insert_bit i k b =
  let low_mask = (1 lsl k) - 1 in
  let low = i land low_mask in
  let high = (i land lnot low_mask) lsl 1 in
  high lor (b lsl k) lor low

let popcount i =
  let rec go acc i = if i = 0 then acc else go (acc + (i land 1)) (i lsr 1) in
  go 0 i

let all_masks ks = List.fold_left (fun acc k -> acc lor (1 lsl k)) 0 ks

let deposit v mask =
  let acc = ref 0 and rest = ref mask and j = ref 0 in
  while !rest <> 0 do
    let b = !rest land - !rest in
    if (v lsr !j) land 1 = 1 then acc := !acc lor b;
    rest := !rest lxor b;
    incr j
  done;
  !acc

let extract x mask =
  let acc = ref 0 and rest = ref mask and j = ref 0 in
  while !rest <> 0 do
    let b = !rest land - !rest in
    if x land b <> 0 then acc := !acc lor (1 lsl !j);
    rest := !rest lxor b;
    incr j
  done;
  !acc
