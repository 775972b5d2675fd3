package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// fingerprint identifies the host and the code a result was measured on.
// Commit is the git HEAD when the checkout is a git repository ("none"
// otherwise); Tree is a SHA-256 over the Go sources, go.mod files and
// event specs under the repository root, so two results from checkouts
// without git history can still be matched to the same code.
type fingerprint struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Tree       string `json:"tree"`
}

func hostFingerprint(root, commit string) (fingerprint, error) {
	tree, err := treeDigest(root)
	if err != nil {
		return fingerprint{}, err
	}
	return fingerprint{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit,
		Tree:       tree,
	}, nil
}

// treeDigest hashes every source file under root in lexical path order,
// skipping dot-directories (VCS metadata and build output).
func treeDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !isSource(d.Name()) {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)                     // path is under root by construction
		_, _ = h.Write([]byte(filepath.ToSlash(rel) + "\x00")) // a hash.Hash never returns a write error
		_, _ = h.Write(b)
		return nil
	})
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func isSource(name string) bool {
	for _, ext := range []string{".go", ".s", ".spec"} {
		if strings.HasSuffix(name, ext) {
			return true
		}
	}
	return name == "go.mod"
}
