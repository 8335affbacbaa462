package data

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ReadVectors parses whitespace-separated numeric vectors, one per
// line, from r. Blank lines and lines starting with '#' are skipped.
// An optional leading "label:" token (any token ending in ':') names
// the vector's class. All vectors must share one dimensionality.
//
// This is the interchange format of cmd/emddist and cmd/emdgen
// consumers: plain text, trivially produced by any feature extractor.
func ReadVectors(r io.Reader) (vectors [][]float64, labels []string, err error) {
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	dim := -1
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		label := ""
		if strings.HasSuffix(fields[0], ":") {
			label = strings.TrimSuffix(fields[0], ":")
			fields = fields[1:]
		}
		if len(fields) == 0 {
			return nil, nil, fmt.Errorf("data: line %d: label without values", lineNo)
		}
		vec := make([]float64, len(fields))
		for i, f := range fields {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, nil, fmt.Errorf("data: line %d: %w", lineNo, err)
			}
			vec[i] = v
		}
		if dim == -1 {
			dim = len(vec)
		} else if len(vec) != dim {
			return nil, nil, fmt.Errorf("data: line %d has %d values, want %d", lineNo, len(vec), dim)
		}
		vectors = append(vectors, vec)
		labels = append(labels, label)
	}
	if err := scanner.Err(); err != nil {
		return nil, nil, err
	}
	if len(vectors) == 0 {
		return nil, nil, fmt.Errorf("data: no vectors found")
	}
	return vectors, labels, nil
}
