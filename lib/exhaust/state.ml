include Machine.State (* under the name perfbench/main.ml uses *)
