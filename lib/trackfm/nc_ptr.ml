let tag_base = 1 lsl 60

let class_shift = 57
let class_mask = 0x3
let offset_mask = (1 lsl class_shift) - 1

let[@inline] is_tracked ptr = ptr land tag_base <> 0

let[@inline] offset ptr =
  assert (is_tracked ptr);
  ptr land offset_mask

let[@inline] size_class ptr = (ptr lsr class_shift) land class_mask

let class_base idx =
  assert (idx >= 0 && idx <= class_mask);
  tag_base lor (idx lsl class_shift)

let[@inline] object_id ptr ~object_size_log2 = offset ptr lsr object_size_log2
