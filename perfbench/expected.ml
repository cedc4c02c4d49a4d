(* Campaign outputs frozen from a reference run of the unmodified
   libraries at --jobs 1, where every value below is deterministic.
   fig2 entries: digest of by_weight and totals, then the memo split;
   exhaust entries: digest of the per-function rows, then counters;
   the /smoke entries are the reduced smoke-mode runs. *)

let values : (string * string) list =
  [ ("exhaust-defended/executed",
     "24846");
    ("exhaust-defended/faulted",
     "34784");
    ("exhaust-defended/points",
     "208896");
    ("exhaust-defended/pruned",
     "101608");
    ("exhaust-defended/rows",
     "c562176383ffcfe335e4bd4c37d0b6c5");
    ("exhaust-defended/smoke/executed",
     "635");
    ("exhaust-defended/smoke/faulted",
     "587");
    ("exhaust-defended/smoke/points",
     "3264");
    ("exhaust-defended/smoke/pruned",
     "1387");
    ("exhaust-defended/smoke/rows",
     "0db0e977f6e22353c592b61ecf3639b3");
    ("exhaust-defended/smoke/states",
     "2619");
    ("exhaust-defended/smoke/static_pruned",
     "655");
    ("exhaust-defended/smoke/totals",
     "1958,15,93,0,0,77,251,526,344,0,0,0,0,0,0,0");
    ("exhaust-defended/states",
     "26830");
    ("exhaust-defended/static_pruned",
     "47658");
    ("exhaust-defended/totals",
     "145285,5177,116,0,2,8703,19698,16386,13529,0,0,0,0,0,0,0");
    ("exhaust-guard/executed",
     "1550");
    ("exhaust-guard/faulted",
     "190702");
    ("exhaust-guard/points",
     "835584");
    ("exhaust-guard/pruned",
     "643332");
    ("exhaust-guard/rows",
     "2a67f30b8b89cfcb77807602fac66754");
    ("exhaust-guard/smoke/executed",
     "579");
    ("exhaust-guard/smoke/faulted",
     "574");
    ("exhaust-guard/smoke/points",
     "3264");
    ("exhaust-guard/smoke/pruned",
     "2111");
    ("exhaust-guard/smoke/rows",
     "63c5ae09628a063e0edaca38e6037b33");
    ("exhaust-guard/smoke/states",
     "579");
    ("exhaust-guard/smoke/static_pruned",
     "0");
    ("exhaust-guard/smoke/totals",
     "1946,0,110,0,0,124,497,379,208,0,0,0,0,0,0,0");
    ("exhaust-guard/states",
     "1550");
    ("exhaust-guard/static_pruned",
     "0");
    ("exhaust-guard/totals",
     "412943,0,169242,0,0,108256,92468,22306,30369,0,0,0,0,0,0,0");
    ("fig2/and/ADDS",
     "ac525a5d5c9bab40bd8b45bab5edb558 executed=256 memoized=65280");
    ("fig2/and/BCC",
     "7ac48234a52845e945f1116841c80d37 executed=32 memoized=65504");
    ("fig2/and/BCS",
     "7ac48234a52845e945f1116841c80d37 executed=16 memoized=65520");
    ("fig2/and/BEQ",
     "770e7d8d1e3dfe2a813e6f432e75a9c0 executed=8 memoized=65528");
    ("fig2/and/BGE",
     "29e599430fef1ab0493b93e7f1daf6fb executed=32 memoized=65504");
    ("fig2/and/BGT",
     "7ac48234a52845e945f1116841c80d37 executed=32 memoized=65504");
    ("fig2/and/BHI",
     "7ac48234a52845e945f1116841c80d37 executed=16 memoized=65520");
    ("fig2/and/BLE",
     "a64c11558d1055218380e7ae94e1f28b executed=64 memoized=65472");
    ("fig2/and/BLS",
     "7ac48234a52845e945f1116841c80d37 executed=32 memoized=65504");
    ("fig2/and/BLT",
     "7ac48234a52845e945f1116841c80d37 executed=64 memoized=65472");
    ("fig2/and/BMI",
     "7ac48234a52845e945f1116841c80d37 executed=16 memoized=65520");
    ("fig2/and/BNE",
     "7ac48234a52845e945f1116841c80d37 executed=16 memoized=65520");
    ("fig2/and/BPL",
     "7ac48234a52845e945f1116841c80d37 executed=32 memoized=65504");
    ("fig2/and/BVC",
     "f2ac58f769df9235b2ac28a9c2372d0d executed=64 memoized=65472");
    ("fig2/and/BVS",
     "7ac48234a52845e945f1116841c80d37 executed=32 memoized=65504");
    ("fig2/and/LDRB",
     "364a284cd1da073991889f8bd8ec931e executed=256 memoized=65280");
    ("fig2/and/STRB",
     "9aa0d16d39c7efbc76122dc34765b19b executed=128 memoized=65408");
    ("fig2/and0/BCC",
     "16e7e40b9d5d83583b2698b96c6b272e executed=32 memoized=65504");
    ("fig2/and0/BCS",
     "f59d3d41ae35cf2a88957218ae26a4b3 executed=16 memoized=65520");
    ("fig2/and0/BEQ",
     "22e3f080e52367c239f0336df4f01b4e executed=8 memoized=65528");
    ("fig2/and0/BGE",
     "020be3e09193afb5821287142020f5a2 executed=32 memoized=65504");
    ("fig2/and0/BGT",
     "16e7e40b9d5d83583b2698b96c6b272e executed=32 memoized=65504");
    ("fig2/and0/BHI",
     "f59d3d41ae35cf2a88957218ae26a4b3 executed=16 memoized=65520");
    ("fig2/and0/BLE",
     "352740dfab716035c80abe1d54734433 executed=64 memoized=65472");
    ("fig2/and0/BLS",
     "16e7e40b9d5d83583b2698b96c6b272e executed=32 memoized=65504");
    ("fig2/and0/BLT",
     "c175b4308aeae5170feeccd47e0130cd executed=64 memoized=65472");
    ("fig2/and0/BMI",
     "f59d3d41ae35cf2a88957218ae26a4b3 executed=16 memoized=65520");
    ("fig2/and0/BNE",
     "f59d3d41ae35cf2a88957218ae26a4b3 executed=16 memoized=65520");
    ("fig2/and0/BPL",
     "16e7e40b9d5d83583b2698b96c6b272e executed=32 memoized=65504");
    ("fig2/and0/BVC",
     "b34a29849c450ce514b990a8f0a06132 executed=64 memoized=65472");
    ("fig2/and0/BVS",
     "16e7e40b9d5d83583b2698b96c6b272e executed=32 memoized=65504");
    ("fig2/or/ADDS",
     "ca5ed4a3617409a18d3097e013a122ab executed=256 memoized=65280");
    ("fig2/or/BCC",
     "9949f442d94ca758bd99b981e25787db executed=2048 memoized=63488");
    ("fig2/or/BCS",
     "c3370f5182ea56224216c7b8adb00b64 executed=4096 memoized=61440");
    ("fig2/or/BEQ",
     "0d2879e0e8962a030fcf741dd3931315 executed=8192 memoized=57344");
    ("fig2/or/BGE",
     "9cf58334c956ddfbbd7a105c2ce31887 executed=2048 memoized=63488");
    ("fig2/or/BGT",
     "9cf58334c956ddfbbd7a105c2ce31887 executed=2048 memoized=63488");
    ("fig2/or/BHI",
     "f4ec3c4a5d326a923848dc3de265bfc0 executed=4096 memoized=61440");
    ("fig2/or/BLE",
     "1881e6d1eac983f7e9075f4c0919bf12 executed=1024 memoized=64512");
    ("fig2/or/BLS",
     "a9ab75a23d06b226d1b8372185d92d49 executed=2048 memoized=63488");
    ("fig2/or/BLT",
     "1881e6d1eac983f7e9075f4c0919bf12 executed=1024 memoized=64512");
    ("fig2/or/BMI",
     "7b34c7eff59588b6bd341914179d8f3d executed=4096 memoized=61440");
    ("fig2/or/BNE",
     "7903670c8e1ac7c9aef12b7d7f60a064 executed=4096 memoized=61440");
    ("fig2/or/BPL",
     "a6feaebd404b98ce37e07bcfe459f6a7 executed=2048 memoized=63488");
    ("fig2/or/BVC",
     "2defac14925e6950775b3c40d3e6f615 executed=1024 memoized=64512");
    ("fig2/or/BVS",
     "3b934c956c30dd7ad7d21f1070cfac17 executed=2048 memoized=63488");
    ("fig2/or/LDRB",
     "7c9db7ab1017171094ca0438360573fb executed=256 memoized=65280");
    ("fig2/or/STRB",
     "44586259ece526e5718eb9739c50dc86 executed=512 memoized=65024");
    ("fig2/xor/BCC",
     "784af16d7394fee225d3ce28c6c62af1 executed=65536 memoized=0");
    ("fig2/xor/BCS",
     "9458fc49360378250d700dea7a248179 executed=65536 memoized=0");
    ("fig2/xor/BEQ",
     "5a8486547280d2ff1651b11c5e9c2792 executed=65536 memoized=0");
    ("fig2/xor/BGE",
     "cb5363ac40c855c50667526058ca986c executed=65536 memoized=0");
    ("fig2/xor/BGT",
     "c98dd8a086012d323b2cc5cbd68c8013 executed=65536 memoized=0");
    ("fig2/xor/BHI",
     "8378c3c06745e08072fea5ce35b19566 executed=65536 memoized=0");
    ("fig2/xor/BLE",
     "dfcee129da4d3f1a8d811aeea1048aed executed=65536 memoized=0");
    ("fig2/xor/BLS",
     "fd79e600bb0f61453a8369189bc2f39a executed=65536 memoized=0");
    ("fig2/xor/BLT",
     "f9598c017cf7ffb7b996f69ce7dba6b5 executed=65536 memoized=0");
    ("fig2/xor/BMI",
     "7d0913ddb148ddce6a3da92fd3ef3cd3 executed=65536 memoized=0");
    ("fig2/xor/BNE",
     "c1e7f2b873bb732d64e72d52a065fba0 executed=65536 memoized=0");
    ("fig2/xor/BPL",
     "63d8a33696c5a8aedd7f8bc466d51a6b executed=65536 memoized=0");
    ("fig2/xor/BVC",
     "c6c82aaf917796a1a442da13a5008746 executed=65536 memoized=0");
    ("fig2/xor/BVS",
     "e5f18042a5ed77fb94165ea9343d3179 executed=65536 memoized=0");
    ("tables/table1",
     "per_cycle=1a7d780fccdbf90208946a39548c245a per_cycle_attempts=9801 attempts=78408 emulated=499741 replayed=22840210");
    ("tables/table2",
     "partial=10,45,76,64,72,43,26,48 full=2,10,18,23,12,18,2,6 attempts2=78408 attempts=78408 emulated=757606 replayed=38318010");
    ("tables/table3",
     "windows=10:13,11:15,12:16,13:16,14:17,15:20,16:26,17:29,18:30,19:33,20:34 per_window=9801 attempts=107811 emulated=4914046 replayed=78655055") ]
