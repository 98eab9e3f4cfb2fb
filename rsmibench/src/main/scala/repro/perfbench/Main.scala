package repro.perfbench

/** Entry point of one benchmark run.
  *
  * Args: --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *       --work-dir <dir> [--small] [--source <digest>]
  *       or --self-test.
  *
  * Prints one `[metric]` line per metric, a `[facts]` line, the
  * per-stretch and pooled values, and as the last line the result
  * object. Exits 0 only if the run finished; the result's `correct`
  * says whether every gate passed: every answer right, and in a traced
  * run, walks that agree with the program and layers that add up.
  */
object Main {

  /** Metrics of a run with tracing off, and with tracing on. */
  val EndToEnd: Seq[String] = Seq("setup_s", "heap_mb",
    "point_p50_us", "point_p90_us", "window_p50_us", "window_p90_us", "knn_p50_us", "knn_p90_us",
    "window_recall", "knn_recall", "insert_p50_us", "insert_p90_us", "delete_p50_us",
    "disk_mb")

  val PerLayer: Seq[String] = Seq(
    "build.rank_ms", "build.leaf_train_ms", "build.internal_ms", "build.pack_ms", "build.pmf_ms",
    "build.alloc_mb", "build.gc_ms", "jvm.compile_ms", "build.models", "build.height",
    "build.avg_depth", "build.max_err_l", "build.max_err_a", "build.mean_err_window",
    "spark.build_s", "spark.write_s", "spark.jobs", "spark.tasks", "spark.driver_cells", "spark.shuffle_mb",
    "point.descent_ns", "point.levels", "point.predict_ns", "point.scan_ns", "point.blocks",
    "point.overflow_blocks", "point.points_examined", "point.alloc_bytes",
    "window.range_ns", "window.nodes_visited", "window.scan_ns", "window.blocks",
    "window.points_examined", "window.results", "window.useful_frac", "window.alloc_bytes",
    "knn.expansions", "knn.range_ns", "knn.scan_ns", "knn.blocks", "knn.points_examined",
    "knn.useful_frac", "knn.alloc_bytes",
    "insert.overflow_blocks", "insert.max_chain", "insert.mean_chain", "insert.alloc_bytes",
    "delete.found_frac",
    "scan.meta_read_ms", "scan.select_ms", "scan.blocks", "scan.bytes_read", "scan.rows_read",
    "scan.rows_returned", "scan.useful_frac", "scan.jobs", "scan.tasks",
    "jvm.gc_ms.build", "jvm.gc_ms.read", "jvm.gc_ms.update", "jvm.gc_ms.scan",
    "trace.build_sum_err", "trace.point_sum_err", "trace.window_sum_err", "trace.knn_sum_err",
    "trace.overhead_pct")

  def main(argv: Array[String]): Unit = {
    val opts = argv.sliding(2, 1).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val broken = Gates.selfTest()
    if (argv.contains("--self-test")) {
      println(s"[self-test] gates that count a wrong answer: ${if (broken.isEmpty) "all" else "not " + broken.mkString(", ")}")
      sys.exit(if (broken.isEmpty) 0 else 1)
    }
    require(broken.isEmpty, s"gates that miss a wrong answer: ${broken.mkString(", ")}")
    val a = RunArgs(opts("workload"), opts("seed").toLong, opts("seconds").toDouble,
      opts("trace") == "1", argv.contains("--small"), opts("work-dir"))
    require(Workloads.names.contains(a.workload), s"unknown workload ${a.workload}")

    val run = new Run(a)
    val t0 = System.nanoTime()
    Workloads.run(run)
    val r = run.report
    run.builds.report(r)
    if (!a.traced) {
      run.reads.report(r)
      run.updates.report(r)
    }

    val out = if (a.traced) PerLayer else EndToEnd
    val g = run.gates
    r.facts ++= Seq(
      "workload" -> a.workload, "seed" -> a.seed, "seconds" -> a.seconds, "trace" -> a.traced,
      "small" -> a.small, "source" -> opts.getOrElse("source", "unknown"),
      "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.runtime.version")}",
      "jvm_flags" -> Jvm.flags, "nproc" -> Runtime.getRuntime.availableProcessors,
      "samples" -> r.samplesOf(out), "warmup_stretches" -> run.warmStretches, "rounds" -> run.rounds,
      "attempted" -> g.attempted, "failed" -> g.failed,
      "failed_frac" -> (if (g.attempted == 0) 0.0 else g.failed.toDouble / g.attempted),
      "gates" -> g.byGate, "run_s" -> (System.nanoTime() - t0) / 1e9,
      "phase_s" -> run.wallByPhase)
    g.firstFailures.foreach(f => Console.err.println(s"[failed] $f"))
    r.lines(out).foreach(println)
    println(s"[facts] ${Json(r.facts)}")
    println(s"[stretches] ${Json(r.stretches.filter(kv => out.contains(kv._1)))}")
    println(s"[pooled] ${Json(r.pooled.filter(kv => out.contains(kv._1)))}")
    println(r.resultJson(out, correct = g.failed == 0, attempted = g.attempted, failed = g.failed))
  }
}
