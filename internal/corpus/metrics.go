package corpus

import "uncertts/internal/telemetry"

// copiedBytes is the corpus' metric family: the arena bytes growth has
// copied, over every corpus in the process — the write path's largest cost
// beyond deriving the rows themselves.
var copiedBytes = telemetry.NewCounter(
	"uncertts_corpus_copied_bytes_total",
	"Arena bytes copied by growth reallocations since the process started.")
