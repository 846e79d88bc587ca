package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"liquidarch/internal/fpga"
	"liquidarch/internal/measure"
	"liquidarch/internal/phase"
	"liquidarch/internal/platform"
)

// Durable model tier: a built model set — the product of the ~52
// measurements — promoted to an addressable on-disk artifact, so a
// restarted process or a sibling replica skips not only the simulations
// (the measurement store's job) but the 52 store reads and the rebuild
// itself. The format extends core.SaveModel's per-model JSON: one
// document per model set, keyed by the same fingerprint tuple as the
// in-memory model layer (program SHA-256, space fingerprint, scale,
// sample, interval, threshold), with the models serialized exactly as
// SaveModel writes them (variables by name, re-bound on load).
//
// Miss semantics mirror measure.Store: a corrupt, version-mismatched or
// key-mismatched artifact reads as a miss and is removed on sight
// (read-repair); failed builds are never spilled, so an artifact always
// describes a completed build. Writes are temp-file + rename, so
// replicas sharing a directory never observe a partial artifact.

// ModelSetVersion is the on-disk model-artifact format version.
// Artifacts live under dir/v<version>/; bumping it orphans (but does not
// delete) artifacts written by older code. v2 added the trace's
// per-phase representative signatures (phase.Trace.Representatives),
// which online adaptation classifies against — v1 phase artifacts lack
// them and must re-detect, so they read as misses.
const ModelSetVersion = 2

// ModelStore is the durable model tier: one JSON artifact per built
// model set under dir/v<version>/, named by the set's key hash. It is
// safe for concurrent use within a process and for sharing a directory
// across replicas.
type ModelStore struct {
	dir string

	hits   atomic.Uint64 // model sets answered from disk
	misses atomic.Uint64 // lookups that fell through to a build
	spills atomic.Uint64 // completed builds written to disk
}

// NewModelStore opens (creating if needed) a model-artifact store rooted
// at dir.
func NewModelStore(dir string) (*ModelStore, error) {
	s := &ModelStore{dir: dir}
	if err := os.MkdirAll(s.versionDir(), 0o755); err != nil {
		return nil, fmt.Errorf("core: opening model store: %w", err)
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *ModelStore) Dir() string { return s.dir }

func (s *ModelStore) versionDir() string {
	return filepath.Join(s.dir, fmt.Sprintf("v%d", ModelSetVersion))
}

// artifactID is the durable identity of a model set: the hex SHA-256
// over the modelKey's fields. It names the artifact file.
func (k modelKey) artifactID() string {
	h := sha256.New()
	fmt.Fprintf(h, "prog=%s\nspace=%s\nscale=%s\nsample=%d\ninterval=%d\nthreshold=%g\n",
		k.prog, k.space, k.scale, k.sample, k.interval, k.threshold)
	return hex.EncodeToString(h.Sum(nil))
}

func (s *ModelStore) path(key modelKey) string {
	return filepath.Join(s.versionDir(), key.artifactID()+".json")
}

// modelSetJSON is the serialized model-set artifact. The key fields are
// stored alongside the payload so a load can verify the artifact really
// answers the requested key (a foreign or hash-colliding file reads as
// corrupt). Models reuse Model's own JSON form; phase artifacts carry
// the detection trace and the base run's per-phase profiles, which is
// everything phaseReport consumes beyond the models themselves.
type modelSetJSON struct {
	Version      int               `json:"version"`
	App          string            `json:"app,omitempty"`
	Prog         string            `json:"prog"`
	Space        string            `json:"space"`
	Scale        string            `json:"scale"`
	Sample       uint64            `json:"sample,omitempty"`
	Interval     uint64            `json:"interval,omitempty"`
	Threshold    float64           `json:"threshold,omitempty"`
	BaseLUTs     int               `json:"base_luts"`
	BaseBRAM     int               `json:"base_bram"`
	Models       []json.RawMessage `json:"models"`
	Trace        *phase.Trace      `json:"trace,omitempty"`
	BaseProfiles []phase.Profile   `json:"base_profiles,omitempty"`
}

// matches reports whether the artifact's stored key fields equal the
// requested key's.
func (a *modelSetJSON) matches(key modelKey) bool {
	return a.Prog == key.prog && a.Space == key.space &&
		a.Scale == key.scale.String() && a.Sample == key.sample &&
		a.Interval == key.interval && a.Threshold == key.threshold
}

// load returns the model set stored for key, or ok=false on a miss. A
// corrupt, version-mismatched or key-mismatched artifact is removed on
// sight (read-repair) and reads as a miss — the caller rebuilds and the
// next spill replaces it.
func (s *ModelStore) load(key modelKey) (*modelSet, bool) {
	path := s.path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		s.misses.Add(1)
		return nil, false
	}
	set, err := decodeModelSet(data, key)
	if err != nil {
		_ = os.Remove(path)
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return set, true
}

// decodeModelSet parses and validates one artifact against key.
func decodeModelSet(data []byte, key modelKey) (*modelSet, error) {
	var in modelSetJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("core: parsing model artifact: %w", err)
	}
	if in.Version != ModelSetVersion {
		return nil, fmt.Errorf("core: model artifact is format v%d, want v%d", in.Version, ModelSetVersion)
	}
	if !in.matches(key) {
		return nil, fmt.Errorf("core: model artifact does not answer its key")
	}
	if len(in.Models) == 0 {
		return nil, fmt.Errorf("core: model artifact holds no models")
	}
	if in.Trace != nil {
		if err := checkTrace(in.Trace); err != nil {
			return nil, err
		}
		// A phase artifact must be internally consistent: one model per
		// phase beyond the whole-program one, one base profile per phase,
		// one representative signature per phase (the online classifier's
		// references).
		if len(in.Models) != 1+in.Trace.Phases || len(in.BaseProfiles) != in.Trace.Phases {
			return nil, fmt.Errorf("core: phase model artifact is inconsistent")
		}
		if len(in.Trace.Representatives) != in.Trace.Phases {
			return nil, fmt.Errorf("core: phase model artifact lacks phase representatives")
		}
	} else if len(in.Models) != 1 {
		return nil, fmt.Errorf("core: plain model artifact holds %d models", len(in.Models))
	}
	set := &modelSet{
		baseRes:      fpga.Resources{LUTs: in.BaseLUTs, BRAM: in.BaseBRAM},
		trace:        in.Trace,
		baseProfiles: in.BaseProfiles,
	}
	for i, raw := range in.Models {
		m := &Model{}
		if err := m.UnmarshalJSON(raw); err != nil {
			return nil, fmt.Errorf("core: model %d of artifact: %w", i, err)
		}
		if m.Scale != key.scale || m.Space.Fingerprint() != key.space {
			return nil, fmt.Errorf("core: model %d of artifact does not answer its key", i)
		}
		set.models = append(set.models, m)
	}
	return set, nil
}

// checkTrace refuses a phase trace that the report, replay and online
// stages could not index, replay or classify against. Detection always
// yields at least one phase, its segments are the run-length encoding of
// its interval assignments over phases in [0, Phases), and each phase's
// representative is a full block-signature vector.
func checkTrace(t *phase.Trace) error {
	if t.Phases < 1 || len(t.Segments) == 0 {
		return fmt.Errorf("core: phase model artifact holds an empty trace")
	}
	for _, rep := range t.Representatives {
		if len(rep) != platform.SignatureBuckets {
			return fmt.Errorf("core: phase model artifact holds a %d-bucket representative", len(rep))
		}
	}
	next := 0
	for _, seg := range t.Segments {
		if seg.Phase < 0 || seg.Phase >= t.Phases {
			return fmt.Errorf("core: phase model artifact names phase %d of %d", seg.Phase, t.Phases)
		}
		if seg.Start != next || seg.End < seg.Start || seg.End >= len(t.Assignments) {
			return fmt.Errorf("core: phase model artifact segments do not tile its intervals")
		}
		for _, p := range t.Assignments[seg.Start : seg.End+1] {
			if p != seg.Phase {
				return fmt.Errorf("core: phase model artifact segments disagree with its assignments")
			}
		}
		next = seg.End + 1
	}
	if next != len(t.Assignments) {
		return fmt.Errorf("core: phase model artifact segments do not tile its intervals")
	}
	return nil
}

// save spills one completed build for key. Only callers holding a
// successfully built set may call it, so an artifact on disk always
// describes a finished build.
func (s *ModelStore) save(key modelKey, set *modelSet) error {
	data, err := encodeModelSet(key, set)
	if err != nil {
		return err
	}
	if err := measure.WriteFileAtomic(s.path(key), data); err != nil {
		return err
	}
	s.spills.Add(1)
	return nil
}

// encodeModelSet serializes one model set as the artifact for key, the
// inverse of decodeModelSet.
func encodeModelSet(key modelKey, set *modelSet) ([]byte, error) {
	out := modelSetJSON{
		Version:      ModelSetVersion,
		App:          set.models[0].App,
		Prog:         key.prog,
		Space:        key.space,
		Scale:        key.scale.String(),
		Sample:       key.sample,
		Interval:     key.interval,
		Threshold:    key.threshold,
		BaseLUTs:     set.baseRes.LUTs,
		BaseBRAM:     set.baseRes.BRAM,
		Trace:        set.trace,
		BaseProfiles: set.baseProfiles,
	}
	for _, m := range set.models {
		raw, err := m.MarshalJSON()
		if err != nil {
			return nil, fmt.Errorf("core: encoding model artifact: %w", err)
		}
		out.Models = append(out.Models, raw)
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("core: encoding model artifact: %w", err)
	}
	return data, nil
}
