# Checkpoint/resume acceptance test (ARCHITECTURE.md Sec. 17): replay a
# faulted + chaos-injected trace under the cost-aware policy four ways and
# assert
#  - periodic checkpointing is inert: the checkpointed run's summary CSV,
#    obs JSON snapshot, Prometheus exposition, and alerts JSONL are
#    byte-identical to the uncheckpointed reference (wall-clock-valued
#    instruments are volatile-filtered out of both renderings, so the .prom
#    file byte-compares like the rest),
#  - an injected --crash-at kills the run with the harness exit code 42,
#    leaving valid artefacts behind,
#  - --resume from the crashed run reproduces the reference byte-for-bit
#    (summary CSV with its econ cost columns, obs JSON, .prom, alerts JSONL)
#    and, with telemetry on, passes synergy_top --check conservation — both
#    the energy ledger and the econ cost/carbon splits — on the resumed
#    snapshot,
#  - corrupting the newest artefact makes --resume fail closed: exit 1 and
#    a diagnostic naming the fault (no silent fallback to stale state),
#  - resuming from a directory with no artefacts exits 1,
#  - malformed flag combinations (--resume/--checkpoint-interval/--crash-at
#    without --checkpoint-dir; econ flags without --econ; out-of-range econ
#    values; numbers with trailing characters) exit 2 with usage.
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# Node-level chaos (two crashes, warm restarts) plus device faults, so the
# checkpointed event heap holds every kind of pending event — arrivals,
# completions, faults, crashes, restarts, scrape and econ ticks — not just a
# quiet queue.
set(common_args --nodes 8 --gpus 4 --jobs 120 --seed 7 --mean-interarrival 2
                --policy cost --econ --capex 1.2 --deferrable 0.3
                --faults 0.02 --fault-device-lost 0.01 --fault-max-losses 2
                --chaos-mtbf 60 --chaos-max 2 --chaos-restart 45
                --obs-interval 5)

# --- reference: uncheckpointed, uninterrupted -------------------------------
execute_process(COMMAND "${CLUSTER}" ${common_args}
                        --csv "${WORK_DIR}/ref.csv" --obs-out "${WORK_DIR}/ref"
                WORKING_DIRECTORY "${WORK_DIR}"
                RESULT_VARIABLE r1 OUTPUT_VARIABLE out1 ERROR_VARIABLE err1)
if(NOT r1 EQUAL 0)
  message(FATAL_ERROR "reference run failed (${r1}):\n${out1}\n${err1}")
endif()
# The chaos plan actually fired (rows only print when nonzero).
foreach(marker "node crashes \\(chaos\\)" "node restarts \\(chaos\\)")
  if(NOT out1 MATCHES "${marker}")
    message(FATAL_ERROR "chaos plan never fired — missing '${marker}':\n${out1}")
  endif()
endforeach()

# --- checkpointed run: must not perturb the replay --------------------------
execute_process(COMMAND "${CLUSTER}" ${common_args}
                        --checkpoint-dir "${WORK_DIR}/ckpt_full" --checkpoint-interval 20
                        --csv "${WORK_DIR}/full.csv" --obs-out "${WORK_DIR}/full"
                WORKING_DIRECTORY "${WORK_DIR}"
                RESULT_VARIABLE r2 OUTPUT_VARIABLE out2 ERROR_VARIABLE err2)
if(NOT r2 EQUAL 0)
  message(FATAL_ERROR "checkpointed run failed (${r2}):\n${out2}\n${err2}")
endif()
file(GLOB full_artefacts "${WORK_DIR}/ckpt_full/ckpt-*.synergy")
list(LENGTH full_artefacts n_full)
if(n_full LESS 3)
  message(FATAL_ERROR "checkpointed run left only ${n_full} artefacts")
endif()
foreach(f ref.csv full.csv ref.json full.json ref.alerts.jsonl full.alerts.jsonl)
  if(NOT EXISTS "${WORK_DIR}/${f}")
    message(FATAL_ERROR "expected artefact missing: ${f}")
  endif()
endforeach()
foreach(pair "csv" "json" "prom" "alerts.jsonl")
  file(READ "${WORK_DIR}/ref.${pair}" a)
  file(READ "${WORK_DIR}/full.${pair}" b)
  if(NOT a STREQUAL b)
    message(FATAL_ERROR "checkpointing perturbed the replay: ref.${pair} != full.${pair}")
  endif()
endforeach()

# --- crash injection: exit 42, artefacts survive ----------------------------
execute_process(COMMAND "${CLUSTER}" ${common_args}
                        --checkpoint-dir "${WORK_DIR}/ckpt_crash" --checkpoint-interval 20
                        --crash-at 150
                        --csv "${WORK_DIR}/crash.csv" --obs-out "${WORK_DIR}/crash"
                WORKING_DIRECTORY "${WORK_DIR}"
                RESULT_VARIABLE r3 OUTPUT_VARIABLE out3 ERROR_VARIABLE err3)
if(NOT r3 EQUAL 42)
  message(FATAL_ERROR "--crash-at exited ${r3}, expected the harness code 42:\n${out3}\n${err3}")
endif()
file(GLOB crash_artefacts "${WORK_DIR}/ckpt_crash/ckpt-*.synergy")
list(LENGTH crash_artefacts n_crash)
if(n_crash LESS 2)
  message(FATAL_ERROR "crashed run left only ${n_crash} artefacts before dying")
endif()

# --- resume: byte-identical to the uninterrupted reference ------------------
execute_process(COMMAND "${CLUSTER}" ${common_args}
                        --checkpoint-dir "${WORK_DIR}/ckpt_crash" --checkpoint-interval 20
                        --resume
                        --csv "${WORK_DIR}/resumed.csv" --obs-out "${WORK_DIR}/resumed"
                WORKING_DIRECTORY "${WORK_DIR}"
                RESULT_VARIABLE r4 OUTPUT_VARIABLE out4 ERROR_VARIABLE err4)
if(NOT r4 EQUAL 0)
  message(FATAL_ERROR "resume failed (${r4}):\n${out4}\n${err4}")
endif()
if(NOT out4 MATCHES "resumed from")
  message(FATAL_ERROR "resume never reported its source artefact:\n${out4}")
endif()
foreach(pair "csv" "json" "prom" "alerts.jsonl")
  file(READ "${WORK_DIR}/ref.${pair}" a)
  file(READ "${WORK_DIR}/resumed.${pair}" b)
  if(NOT a STREQUAL b)
    message(FATAL_ERROR "resume diverged from the reference: ref.${pair} != resumed.${pair}")
  endif()
endforeach()

# With charge sites compiled in, the resumed snapshot still conserves energy:
# per-cause attribution sums to the ledger total within 0.1%.
if(TELEMETRY STREQUAL "ON")
  execute_process(COMMAND "${TOP}" --check "${WORK_DIR}/resumed.json"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE cout ERROR_VARIABLE cerr)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "synergy_top --check rejected resumed.json (${rc}):\n${cout}${cerr}")
  endif()
endif()

# --- fail closed: corrupt the NEWEST artefact (resume continued writing
# checkpoints, so only the lexically-last file is the one --resume loads) ----
file(GLOB crash_artefacts "${WORK_DIR}/ckpt_crash/ckpt-*.synergy")
list(SORT crash_artefacts)
list(GET crash_artefacts -1 newest)
file(READ "${newest}" sealed)
string(SUBSTRING "${sealed}" 0 180 truncated)
file(WRITE "${newest}" "${truncated}")
execute_process(COMMAND "${CLUSTER}" ${common_args}
                        --checkpoint-dir "${WORK_DIR}/ckpt_crash" --resume
                WORKING_DIRECTORY "${WORK_DIR}"
                RESULT_VARIABLE r5 OUTPUT_VARIABLE out5 ERROR_VARIABLE err5)
if(NOT r5 EQUAL 1)
  message(FATAL_ERROR "corrupt resume exited ${r5}, expected operational failure 1")
endif()
if(NOT err5 MATCHES "truncated|checksum")
  message(FATAL_ERROR "corrupt resume diagnostic names no envelope fault:\n${err5}")
endif()

# Resuming with no artefacts at all is the same operational failure.
execute_process(COMMAND "${CLUSTER}" ${common_args}
                        --checkpoint-dir "${WORK_DIR}/ckpt_empty" --resume
                WORKING_DIRECTORY "${WORK_DIR}"
                RESULT_VARIABLE r6 OUTPUT_VARIABLE out6 ERROR_VARIABLE err6)
if(NOT r6 EQUAL 1)
  message(FATAL_ERROR "empty-dir resume exited ${r6}, expected 1:\n${err6}")
endif()

# --- usage contract: malformed combinations exit 2 --------------------------
foreach(bad_args "--resume" "--checkpoint-interval 20" "--crash-at 150")
  separate_arguments(bad_list UNIX_COMMAND "${bad_args}")
  execute_process(COMMAND "${CLUSTER}" ${common_args} ${bad_list}
                  WORKING_DIRECTORY "${WORK_DIR}"
                  RESULT_VARIABLE ru OUTPUT_VARIABLE ou ERROR_VARIABLE eu)
  if(NOT ru EQUAL 2)
    message(FATAL_ERROR "'${bad_args}' without --checkpoint-dir exited ${ru}, expected usage error 2")
  endif()
endforeach()

# Econ usage contract: trace/capex flags and the cost policy require --econ,
# and out-of-range econ values are usage errors even with --econ present.
# A numeric value must also parse whole: "2x" nodes, a "3000W" cap and "5x"
# jobs are usage errors, not 2 nodes, 3000 W and 5 jobs.
# None of these invocations get as far as opening a file, so the missing
# nosuch.csv never matters — exit 2 must come from flag validation alone.
foreach(bad_args
        "--price-trace nosuch.csv"
        "--carbon-trace nosuch.csv"
        "--capex 1.0"
        "--policy cost"
        "--econ --capex -1"
        "--econ --econ-period 0"
        "--econ --deferrable 1.5"
        "--nodes 2x"
        "--cap 3000W"
        "--jobs 5x")
  separate_arguments(bad_list UNIX_COMMAND "${bad_args}")
  execute_process(COMMAND "${CLUSTER}" --jobs 1 ${bad_list}
                  WORKING_DIRECTORY "${WORK_DIR}"
                  RESULT_VARIABLE ru OUTPUT_VARIABLE ou ERROR_VARIABLE eu)
  if(NOT ru EQUAL 2)
    message(FATAL_ERROR "'${bad_args}' exited ${ru}, expected usage error 2:\n${eu}")
  endif()
endforeach()

message(STATUS "checkpoint workflow ok: inert checkpointing (csv/json/prom/alerts), "
               "crash=42, byte-identical resume with econ state, fail-closed "
               "corruption, usage contract")
